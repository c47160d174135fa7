#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/query_control.h"
#include "common/rng.h"
#include "core/index_buffer.h"
#include "exec/morsel.h"
#include "index/partial_index.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/table.h"
#include "../test_util.h"

namespace aib {
namespace {

constexpr Value kValueMax = 1000;
constexpr Value kCoveredHi = 100;

/// Fresh self-contained world per run: injected faults are one-shot against
/// the disk manager and buffer mutations persist, so every determinism leg
/// rebuilds from the same seed. The pool (16 frames) is far smaller than
/// the table (~30 pages), so at scan time pages are real disk reads and an
/// injected read fault actually fires.
struct World {
  DiskManager disk;
  BufferPool pool;
  Table table;
  std::unique_ptr<PartialIndex> index;

  explicit World(uint64_t seed = 42, size_t num_tuples = 300)
      : disk(8192),
        pool(&disk, 16),
        table("t", Schema::PaperSchema(1, 16), &disk, &pool,
              HeapFileOptions{.max_tuples_per_page = 10}) {
    Rng rng(seed);
    for (size_t i = 0; i < num_tuples; ++i) {
      EXPECT_TRUE(
          table
              .Insert(Tuple(
                  {static_cast<Value>(rng.UniformInt(1, kValueMax))}, {"p"}))
              .ok());
    }
    index = std::make_unique<PartialIndex>(&table, 0,
                                           ValueCoverage::Range(1, kCoveredHi));
    EXPECT_TRUE(index->Build().ok());
  }
};

ExecContext MakeContext(const Table& table, MorselDispatcher* dispatcher,
                        const QueryControl* control = nullptr) {
  ExecContext ctx;
  ctx.table = &table;
  ctx.dispatcher = dispatcher;
  ctx.control = control;
  ctx.parallel.min_pages_for_parallel = 1;
  return ctx;
}

/// Everything a MorselIndexingScan can deterministically affect.
struct IndexingRun {
  Status status = Status::Ok();
  std::vector<Rid> rids;
  AccessPathCounters stats;
  IndexingScanFailure failure;
  size_t total_entries = 0;
  size_t partition_count = 0;
  std::vector<uint32_t> counters;
};

IndexingRun RunIndexingLeg(size_t workers, std::optional<size_t> fault_page) {
  World world;
  IndexBufferOptions options;
  options.partition_pages = 4;
  IndexBuffer buffer(world.index.get(), options);
  EXPECT_TRUE(buffer.InitCounters().ok());

  std::unordered_set<size_t> selected;
  for (size_t p = 0; p < world.table.PageCount(); ++p) {
    if (buffer.counters().Get(p) > 0) selected.insert(p);
  }
  buffer.SetReserveHints(
      std::vector<size_t>(selected.begin(), selected.end()));

  if (fault_page.has_value()) {
    world.disk.fault_injector().InjectPageFault(
        FaultOp::kRead, world.table.heap().page_ids()[*fault_page],
        FaultKind::kCorruption);
  }

  std::unique_ptr<MorselDispatcher> dispatcher;
  if (workers > 1) {
    dispatcher = std::make_unique<MorselDispatcher>(workers - 1);
  }
  ExecContext ctx = MakeContext(world.table, dispatcher.get());

  IndexingRun run;
  const std::vector<ColumnPredicate> predicates = {
      {0, kCoveredHi + 1, kCoveredHi + 200}};
  run.status = MorselIndexingScan(world.table, &buffer, selected, predicates,
                                  ctx, &run.rids, &run.stats, &run.failure);
  run.total_entries = buffer.TotalEntries();
  run.partition_count = buffer.PartitionCount();
  for (size_t p = 0; p < world.table.PageCount(); ++p) {
    run.counters.push_back(buffer.counters().Get(p));
  }
  return run;
}

void ExpectSameRun(const IndexingRun& a, const IndexingRun& b,
                   size_t workers) {
  EXPECT_EQ(a.status.ToString(), b.status.ToString()) << workers << " workers";
  EXPECT_EQ(a.rids, b.rids) << workers << " workers";
  EXPECT_EQ(a.stats.pages_scanned, b.stats.pages_scanned);
  EXPECT_EQ(a.stats.pages_skipped, b.stats.pages_skipped);
  EXPECT_EQ(a.stats.pages_selected, b.stats.pages_selected);
  EXPECT_EQ(a.stats.entries_added, b.stats.entries_added);
  EXPECT_EQ(a.stats.buffer_matches, b.stats.buffer_matches);
  EXPECT_EQ(a.failure.failed, b.failure.failed);
  EXPECT_EQ(a.failure.page, b.failure.page);
  EXPECT_EQ(a.failure.counter_before, b.failure.counter_before);
  EXPECT_EQ(a.total_entries, b.total_entries);
  EXPECT_EQ(a.partition_count, b.partition_count);
  EXPECT_EQ(a.counters, b.counters) << workers << " workers";
}

TEST(ParallelPlainScanTest, MatchesSerialAndTupleGroundTruth) {
  World world;
  const ColumnPredicate pred = {0, 200, 400};

  // Per-tuple ground truth.
  std::vector<Rid> expected;
  ASSERT_TRUE(world.table.heap()
                  .ForEachTuple([&](const Rid& rid, const Tuple& tuple) {
                    if (pred.Matches(tuple.ints()[0])) expected.push_back(rid);
                  })
                  .ok());

  ExecContext serial_ctx = MakeContext(world.table, nullptr);
  std::vector<Rid> serial;
  size_t serial_pages = 0;
  ASSERT_TRUE(
      MorselPlainScan(world.table, {pred}, serial_ctx, &serial, &serial_pages)
          .ok());
  EXPECT_EQ(serial, expected);
  EXPECT_EQ(serial_pages, world.table.PageCount());

  for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
    MorselDispatcher dispatcher(workers - 1);
    ExecContext ctx = MakeContext(world.table, &dispatcher);
    std::vector<Rid> parallel;
    size_t parallel_pages = 0;
    ASSERT_TRUE(
        MorselPlainScan(world.table, {pred}, ctx, &parallel, &parallel_pages)
            .ok());
    EXPECT_EQ(parallel, expected) << workers << " workers";
    EXPECT_EQ(parallel_pages, serial_pages) << workers << " workers";
  }
}

TEST(ParallelIndexingScanTest, BitIdenticalToSerialAtAnyWorkerCount) {
  const IndexingRun reference = RunIndexingLeg(1, std::nullopt);
  ASSERT_TRUE(reference.status.ok());
  EXPECT_FALSE(reference.failure.failed);
  EXPECT_GT(reference.total_entries, 0u);
  for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
    ExpectSameRun(reference, RunIndexingLeg(workers, std::nullopt), workers);
  }
}

TEST(ParallelIndexingScanTest, ChaosFaultYieldsIdenticalPrefixAndReport) {
  const size_t fault_page = World().table.PageCount() / 2;
  const IndexingRun reference = RunIndexingLeg(1, fault_page);
  // The reference must actually observe the injected corruption.
  ASSERT_TRUE(reference.failure.failed);
  EXPECT_EQ(reference.failure.page, fault_page);
  EXPECT_FALSE(reference.status.ok());
  for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
    ExpectSameRun(reference, RunIndexingLeg(workers, fault_page), workers);
  }
}

TEST(ParallelPlainScanTest, ExpiredDeadlineIsTimeoutSerialAndParallel) {
  World world;
  const QueryControl control =
      QueryControl::WithDeadline(std::chrono::milliseconds(0));
  const ColumnPredicate pred = {0, 200, 400};

  ExecContext serial_ctx = MakeContext(world.table, nullptr, &control);
  std::vector<Rid> out;
  size_t pages = 0;
  const Status serial =
      MorselPlainScan(world.table, {pred}, serial_ctx, &out, &pages);
  EXPECT_TRUE(serial.IsTimeout());

  MorselDispatcher dispatcher(3);
  ExecContext ctx = MakeContext(world.table, &dispatcher, &control);
  out.clear();
  pages = 0;
  const Status parallel =
      MorselPlainScan(world.table, {pred}, ctx, &out, &pages);
  EXPECT_TRUE(parallel.IsTimeout());
  EXPECT_EQ(serial.ToString(), parallel.ToString());
  EXPECT_TRUE(out.empty());
}

TEST(ParallelPlainScanTest, CancelTokenStopsSerialAndParallel) {
  World world;
  QueryControl control;
  control.cancel = MakeCancelToken();
  control.cancel->store(true);
  const ColumnPredicate pred = {0, 200, 400};

  for (const bool parallel : {false, true}) {
    std::unique_ptr<MorselDispatcher> dispatcher;
    if (parallel) dispatcher = std::make_unique<MorselDispatcher>(3);
    ExecContext ctx = MakeContext(world.table, dispatcher.get(), &control);
    std::vector<Rid> out;
    size_t pages = 0;
    EXPECT_TRUE(MorselPlainScan(world.table, {pred}, ctx, &out, &pages)
                    .IsCancelled());
    EXPECT_TRUE(out.empty());
  }
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b, int query) {
  EXPECT_EQ(a.used_partial_index, b.used_partial_index) << "query " << query;
  EXPECT_EQ(a.used_index_buffer, b.used_index_buffer) << "query " << query;
  EXPECT_EQ(a.result_count, b.result_count) << "query " << query;
  EXPECT_EQ(a.pages_scanned, b.pages_scanned) << "query " << query;
  EXPECT_EQ(a.pages_skipped, b.pages_skipped) << "query " << query;
  EXPECT_EQ(a.pages_fetched, b.pages_fetched) << "query " << query;
  EXPECT_EQ(a.ix_probes, b.ix_probes) << "query " << query;
  EXPECT_EQ(a.buffer_probes, b.buffer_probes) << "query " << query;
  EXPECT_EQ(a.buffer_matches, b.buffer_matches) << "query " << query;
  EXPECT_EQ(a.entries_added, b.entries_added) << "query " << query;
  EXPECT_EQ(a.entries_dropped, b.entries_dropped) << "query " << query;
  EXPECT_EQ(a.partitions_dropped, b.partitions_dropped) << "query " << query;
  EXPECT_EQ(a.partitions_quarantined, b.partitions_quarantined)
      << "query " << query;
  EXPECT_EQ(a.degraded, b.degraded) << "query " << query;
  EXPECT_EQ(a.cost, b.cost) << "query " << query;
}

TEST(ParallelQueryEquivalenceTest, WholeQueriesMatchSerialDatabase) {
  // Two identically-seeded databases; one executes scans through a
  // 4-worker dispatcher. Every query's rids and deterministic stats
  // (everything except wall time) must match field by field.
  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  auto serial_db = testing::MakeSmallPaperDb(1000, 300, 30, options);
  auto parallel_db = testing::MakeSmallPaperDb(1000, 300, 30, options);
  ASSERT_NE(serial_db, nullptr);
  ASSERT_NE(parallel_db, nullptr);

  MorselDispatcher dispatcher(3);
  ParallelScanOptions parallel_options;
  parallel_options.min_pages_for_parallel = 1;
  parallel_options.morsel_pages = 4;
  parallel_db->executor()->SetParallelScan(&dispatcher, parallel_options);

  Rng rng(7);
  for (int q = 0; q < 60; ++q) {
    Query query;
    const int kind = q % 3;
    if (kind == 0) {
      query = Query::Point(0, static_cast<Value>(rng.UniformInt(1, 30)));
    } else if (kind == 1) {
      query = Query::Point(0, static_cast<Value>(rng.UniformInt(31, 300)));
    } else {
      const Value lo = static_cast<Value>(rng.UniformInt(1, 280));
      query = Query::Range(0, lo, lo + 20);
    }
    Result<StatementResult> serial =
        serial_db->ExecuteStatement(Statement::Select(query));
    // Replay the same draws for the parallel database.
    Result<StatementResult> parallel =
        parallel_db->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(serial.ok()) << "query " << q;
    ASSERT_TRUE(parallel.ok()) << "query " << q;
    EXPECT_EQ(serial.value().rids, parallel.value().rids) << "query " << q;
    ExpectSameStats(serial.value().stats, parallel.value().stats, q);
  }
}

}  // namespace
}  // namespace aib
