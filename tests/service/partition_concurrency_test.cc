// Acceptance suite of the partition-granular concurrency refactor: the
// whole-space scan latch and exclusive statement latch are gone, so
// statements on disjoint pages must provably overlap while statements on
// the *same* pages still exclude each other. Each test pins one claim of
// the latch hierarchy (docs/ALGORITHMS.md):
//
//  - indexing scans of different buffers overlap (per-buffer sentinels);
//  - a DML writer's page stripes do not block covered probes of other
//    pages (striped heap latches + optimistic probes);
//  - an optimistic probe that loses a version race retries, and falls
//    back to the pessimistic path when conflicts persist;
//  - mixed DML + query stress keeps Table I consistent (the TSan target);
//  - concurrent DML on disjoint value bands ends in the same logical
//    state as the serial application of the same statements;
//  - writers on distinct pages of one buffer partition, hot or cold, need
//    no latch in common: the structures they share synchronize themselves.
//
// Lives in the `concurrency` label so CI runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "common/partition_latch.h"
#include "common/rng.h"
#include "core/consistency.h"
#include "exec/operators.h"

namespace aib {
namespace {

using ::aib::testing::AffectedRid;
using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::MakeTuple;
using ::aib::testing::Sorted;

constexpr auto kLiveness = std::chrono::seconds(60);
constexpr auto kSettle = std::chrono::milliseconds(150);

class PartitionConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.max_tuples_per_page = 10;
    options.space.max_entries = 3000;
    options.space.max_pages_per_scan = 40;
    db_ = MakeSmallPaperDb(1000, 300, 30, options);
    ASSERT_NE(db_, nullptr);
  }

  void TearDown() override {
    // Never leak a seeded conflict into later tests, even on failure.
    PartialIndexProbe::SetConflictHookForTest({});
  }

  int64_t Waits() const { return db_->metrics().Get(kMetricLatchWaits); }

  std::unique_ptr<Database> db_;
};

// Two indexing scans on *different* buffers share the heap stripes
// (both shared) and touch different scan sentinels, so a scan of buffer B
// proceeds while buffer A is mid-drain — the old whole-space latch would
// have serialized them. A second scan of the *same* buffer A must still
// wait on A's sentinel.
TEST_F(PartitionConcurrencyTest, DisjointBufferScansOverlapSameBufferWaits) {
  ASSERT_NE(db_->GetBuffer(0), nullptr);
  ASSERT_NE(db_->GetBuffer(1), nullptr);

  // Hold exactly what a draining indexing scan of buffer 0 holds after it
  // released the structural latch: every heap stripe shared plus buffer
  // 0's scan sentinel exclusive.
  PartitionLatchTable::LatchSet stripes =
      db_->table().page_latches().AcquireAllShared();
  std::unique_lock<std::shared_mutex> sentinel0(
      db_->GetBuffer(0)->scan_latch());

  const int64_t waits_before = Waits();
  const Query miss_other = Query::Point(1, 200);  // uncovered -> buffer 1
  std::future<Result<StatementResult>> other =
      std::async(std::launch::async, [&] {
        return db_->ExecuteStatement(Statement::Select(miss_other));
      });
  ASSERT_EQ(other.wait_for(kLiveness), std::future_status::ready)
      << "indexing scan of buffer 1 blocked behind buffer 0's drain";
  Result<StatementResult> other_result = other.get();
  ASSERT_TRUE(other_result.ok()) << other_result.status().ToString();
  EXPECT_TRUE(other_result->stats.used_index_buffer);
  EXPECT_EQ(Sorted(other_result->rids), Sorted(GroundTruth(*db_, 1, 200, 200)));
  // The overlap was wait-free: nothing in the disjoint scan's acquisition
  // chain (structural, stripes shared, sentinel 1) was contended.
  EXPECT_EQ(Waits(), waits_before);

  // Same buffer: the scan parks on sentinel 0 until the drain finishes.
  const Query miss_same = Query::Point(0, 200);
  std::future<Result<StatementResult>> same =
      std::async(std::launch::async, [&] {
        return db_->ExecuteStatement(Statement::Select(miss_same));
      });
  EXPECT_NE(same.wait_for(kSettle), std::future_status::ready)
      << "scan of a draining buffer finished without waiting for its "
         "sentinel";
  sentinel0.unlock();
  stripes.Release();
  ASSERT_EQ(same.wait_for(kLiveness), std::future_status::ready);
  Result<StatementResult> same_result = same.get();
  ASSERT_TRUE(same_result.ok()) << same_result.status().ToString();
  EXPECT_TRUE(same_result->stats.used_index_buffer);
  EXPECT_EQ(Sorted(same_result->rids), Sorted(GroundTruth(*db_, 0, 200, 200)));
  EXPECT_GE(Waits(), waits_before + 1);  // the sentinel wait was accounted
}

// A writer's exclusive page stripes stall only probes of *those* pages.
// A covered probe whose result pages map to other stripes sails through
// without a single recorded wait; a probe of the written pages parks on
// the stripe and completes once the writer releases.
TEST_F(PartitionConcurrencyTest, WriterStripesOnlyBlockProbesOfSamePages) {
  const Query probe = Query::Point(0, 10);  // covered (<= 30)
  const std::vector<Rid> expected = Sorted(GroundTruth(*db_, 0, 10, 10));
  ASSERT_FALSE(expected.empty());

  // Stripes of the probe's result pages.
  PartitionLatchTable& latches = db_->table().page_latches();
  std::set<size_t> probe_stripes;
  std::vector<size_t> probe_pages;
  for (const Rid& rid : expected) {
    Result<size_t> page = db_->table().PageNumberOf(rid);
    ASSERT_TRUE(page.ok());
    probe_pages.push_back(page.value());
    probe_stripes.insert(latches.StripeOf(page.value()));
  }
  // A page whose stripe the probe never touches (32 stripes, ~4 result
  // pages — always findable).
  size_t disjoint_page = 0;
  while (probe_stripes.count(latches.StripeOf(disjoint_page)) > 0) {
    ++disjoint_page;
  }

  {
    PartitionLatchTable::LatchSet writer =
        latches.AcquireExclusive({disjoint_page});
    const int64_t waits_before = Waits();
    std::future<Result<StatementResult>> future =
        std::async(std::launch::async, [&] {
          return db_->ExecuteStatement(Statement::Select(probe));
        });
    ASSERT_EQ(future.wait_for(kLiveness), std::future_status::ready)
        << "covered probe blocked behind a writer of unrelated pages";
    Result<StatementResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Sorted(result->rids), expected);
    EXPECT_EQ(Waits(), waits_before);
  }

  {
    PartitionLatchTable::LatchSet writer =
        latches.AcquireExclusive({probe_pages.front()});
    const int64_t waits_before = Waits();
    std::future<Result<StatementResult>> future =
        std::async(std::launch::async, [&] {
          return db_->ExecuteStatement(Statement::Select(probe));
        });
    EXPECT_NE(future.wait_for(kSettle), std::future_status::ready)
        << "probe of a written page did not wait for the writer's stripe";
    writer.Release();
    ASSERT_EQ(future.wait_for(kLiveness), std::future_status::ready);
    Result<StatementResult> result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Sorted(result->rids), expected);
    EXPECT_GE(Waits(), waits_before + 1);
  }
}

// A single seeded conflict: the test hook bumps the index version between
// the optimistic probe's read and its validation, exactly once. The probe
// must retry once, succeed on the second attempt, and never fall back.
TEST_F(PartitionConcurrencyTest, OptimisticProbeRetriesOnSeededConflict) {
  PartialIndex* index = db_->GetIndex(0);
  ASSERT_NE(index, nullptr);
  const std::vector<Rid> expected = Sorted(GroundTruth(*db_, 0, 10, 10));

  std::atomic<int> attempts{0};
  PartialIndexProbe::SetConflictHookForTest([&] {
    if (attempts.fetch_add(1) == 0) {
      // Net-zero structural change, version advances by two: the probe's
      // validation fails without its result set actually changing. The
      // ghost value must be *covered* (PartialIndex::Add asserts coverage)
      // and distinct from the probed value 10.
      const Rid ghost{0, 9999};
      index->Add(29, ghost);
      index->Remove(29, ghost);
    }
  });

  const int64_t retries_before =
      db_->metrics().Get(kMetricLatchOptimisticRetries);
  const int64_t fallbacks_before =
      db_->metrics().Get(kMetricLatchOptimisticFallbacks);
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 10)));
  PartialIndexProbe::SetConflictHookForTest({});

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result->rids), expected);
  EXPECT_EQ(attempts.load(), 2);  // first attempt invalidated, second clean
  EXPECT_EQ(db_->metrics().Get(kMetricLatchOptimisticRetries),
            retries_before + 1);
  EXPECT_EQ(db_->metrics().Get(kMetricLatchOptimisticFallbacks),
            fallbacks_before);
}

// Persistent conflicts exhaust the retry budget; the probe must then take
// the pessimistic whole-table reader acquisition and still answer
// correctly — the optimistic path degrades, never fails.
TEST_F(PartitionConcurrencyTest, OptimisticProbeFallsBackUnderConstantConflict) {
  PartialIndex* index = db_->GetIndex(0);
  ASSERT_NE(index, nullptr);
  const std::vector<Rid> expected = Sorted(GroundTruth(*db_, 0, 10, 10));

  std::atomic<int> attempts{0};
  PartialIndexProbe::SetConflictHookForTest([&] {
    attempts.fetch_add(1);
    const Rid ghost{0, 9999};  // covered ghost value, distinct from 10
    index->Add(29, ghost);
    index->Remove(29, ghost);
  });

  const int64_t retries_before =
      db_->metrics().Get(kMetricLatchOptimisticRetries);
  const int64_t fallbacks_before =
      db_->metrics().Get(kMetricLatchOptimisticFallbacks);
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 10)));
  PartialIndexProbe::SetConflictHookForTest({});

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result->rids), expected);
  EXPECT_EQ(attempts.load(), PartialIndexProbe::kMaxOptimisticRetries);
  EXPECT_EQ(db_->metrics().Get(kMetricLatchOptimisticRetries),
            retries_before + PartialIndexProbe::kMaxOptimisticRetries);
  EXPECT_EQ(db_->metrics().Get(kMetricLatchOptimisticFallbacks),
            fallbacks_before + 1);
}

// The TSan target: writers inserting/updating/deleting in private value
// bands (all >= 101, far above covered_hi = 30) race with readers doing
// covered probes and indexing-scan misses. Covered results are invariant
// under the writers' bands, so readers assert exact rid sets mid-flight;
// afterwards a membrane-exclusive quiesce audits Table I and the final
// per-value counts are checked against the writers' own ledgers.
TEST_F(PartitionConcurrencyTest, MixedDmlAndQueryStressStaysConsistent) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kWriterOps = 120;
  constexpr int kReaderOps = 150;
  constexpr Value kBandWidth = 40;
  constexpr Value kBandBase = 101;  // bands: [101,140], [141,180]

  // Covered truth, frozen before the stress: writers never touch [1,30].
  std::vector<std::vector<Rid>> covered_truth(31);
  for (Value v = 1; v <= 30; ++v) {
    covered_truth[v] = Sorted(GroundTruth(*db_, 0, v, v));
  }
  // Pre-stress counts of every band value, column 0.
  std::map<Value, int64_t> band_delta;
  std::map<Value, int64_t> initial_count;
  for (Value v = kBandBase; v < kBandBase + kWriters * kBandWidth; ++v) {
    initial_count[v] =
        static_cast<int64_t>(GroundTruth(*db_, 0, v, v).size());
  }

  std::vector<std::map<Value, int64_t>> deltas(kWriters);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const Value band_lo = kBandBase + w * kBandWidth;
      std::vector<std::pair<Rid, Value>> mine;
      for (int i = 0; i < kWriterOps; ++i) {
        const Value v = band_lo + (i % kBandWidth);
        if (i % 16 == 9 && !mine.empty()) {
          // Relocating update within the band.
          auto& [rid, old] = mine[i % mine.size()];
          const Value next = band_lo + (old - band_lo + 7) % kBandWidth;
          Result<Rid> updated = AffectedRid(db_->ExecuteStatement(
              Statement::Update(rid, MakeTuple(next, next, next))));
          if (!updated.ok()) {
            failures.fetch_add(1);
            continue;
          }
          --deltas[w][old];
          ++deltas[w][next];
          mine[i % mine.size()] = {updated.value(), next};
        } else if (i % 16 == 14 && !mine.empty()) {
          auto [rid, old] = mine.back();
          mine.pop_back();
          if (!db_->ExecuteStatement(Statement::Delete(rid)).ok()) {
            failures.fetch_add(1);
            continue;
          }
          --deltas[w][old];
        } else {
          Result<Rid> inserted = AffectedRid(
              db_->ExecuteStatement(Statement::Insert(MakeTuple(v, v, v))));
          if (!inserted.ok()) {
            failures.fetch_add(1);
            continue;
          }
          ++deltas[w][v];
          mine.emplace_back(inserted.value(), v);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kReaderOps; ++i) {
        if (i % 2 == 0) {
          const Value v = 1 + (i + r * 13) % 30;  // covered probe
          Result<StatementResult> result =
              db_->ExecuteStatement(Statement::Select(Query::Point(0, v)));
          if (!result.ok() || Sorted(result->rids) != covered_truth[v]) {
            failures.fetch_add(1);
          }
        } else {
          // Indexing-scan miss on another column; results race with the
          // writers, so only success is asserted.
          const Value v = 31 + (i * 7 + r) % 270;
          if (!db_->ExecuteStatement(Statement::Select(
              Query::Point(1, v))).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesce through the statement membrane (the demoted space latch no
  // longer excludes statements) and audit the adaptive state.
  {
    std::unique_lock<std::shared_mutex> quiesce(
        db_->executor()->statement_latch());
    ASSERT_NE(db_->space(), nullptr);
    EXPECT_TRUE(CheckSpaceConsistency(db_->table(), *db_->space()).ok());
  }
  // Every writer's ledger is visible in the final state.
  for (const auto& delta : deltas) {
    for (const auto& [value, count] : delta) band_delta[value] += count;
  }
  for (const auto& [value, count] : band_delta) {
    EXPECT_EQ(static_cast<int64_t>(GroundTruth(*db_, 0, value, value).size()),
              initial_count[value] + count)
        << "value " << value;
  }
}

// Concurrency must not change outcomes: the same per-band statement
// programs applied serially and via one thread per band end in the same
// logical state (per-value multiplicities and a clean Table I audit).
// Physical rids legitimately differ — append interleaving is scheduler
// order — so equality is checked value-by-value, not rid-by-rid.
TEST_F(PartitionConcurrencyTest, DisjointBandDmlMatchesSerialApplication) {
  constexpr int kBands = 4;
  constexpr int kOpsPerBand = 60;
  constexpr Value kBandWidth = 30;
  constexpr Value kBandBase = 101;

  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 3000;
  options.space.max_pages_per_scan = 40;
  auto serial = MakeSmallPaperDb(500, 300, 30, options, 7);
  auto concurrent = MakeSmallPaperDb(500, 300, 30, options, 7);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(concurrent, nullptr);

  // One deterministic statement program per band; rids are tracked
  // per-run because the two runs allocate different physical addresses.
  auto run_band = [&](Database* db, int band) {
    const Value band_lo = kBandBase + band * kBandWidth;
    std::vector<std::pair<Rid, Value>> mine;
    for (int i = 0; i < kOpsPerBand; ++i) {
      const Value v = band_lo + (i * 11) % kBandWidth;
      if (i % 12 == 7 && !mine.empty()) {
        auto& [rid, old] = mine[i % mine.size()];
        const Value next = band_lo + (old - band_lo + 13) % kBandWidth;
        Result<Rid> updated = AffectedRid(db->ExecuteStatement(
            Statement::Update(rid, MakeTuple(next, next, next))));
        ASSERT_TRUE(updated.ok());
        mine[i % mine.size()] = {updated.value(), next};
      } else if (i % 12 == 11 && !mine.empty()) {
        auto [rid, old] = mine.back();
        mine.pop_back();
        ASSERT_TRUE(db->ExecuteStatement(Statement::Delete(rid)).ok());
      } else {
        Result<Rid> inserted = AffectedRid(
            db->ExecuteStatement(Statement::Insert(MakeTuple(v, v, v))));
        ASSERT_TRUE(inserted.ok());
        mine.emplace_back(inserted.value(), v);
      }
    }
  };

  for (int band = 0; band < kBands; ++band) run_band(serial.get(), band);
  std::vector<std::thread> threads;
  for (int band = 0; band < kBands; ++band) {
    threads.emplace_back([&, band] { run_band(concurrent.get(), band); });
  }
  for (std::thread& thread : threads) thread.join();

  for (Value v = 1; v <= 300; ++v) {
    EXPECT_EQ(GroundTruth(*concurrent, 0, v, v).size(),
              GroundTruth(*serial, 0, v, v).size())
        << "value " << v;
  }
  for (Database* db : {serial.get(), concurrent.get()}) {
    std::unique_lock<std::shared_mutex> quiesce(
        db->executor()->statement_latch());
    EXPECT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());
  }
}

// Writers on distinct pages of one buffer partition share no latch: the
// partition maps, the page counters and the partial index synchronize
// themselves, and coverage changes only under the buffer's sentinel held
// exclusively, which every writer holds shared. Four writers insert,
// update and delete on their own pages of one hot and one cold partition
// while an indexing scan fills other partitions of the same buffer; the
// final state must pass the Table I audit and answer every value exactly
// as the writers' own row-set ledger says.
TEST_F(PartitionConcurrencyTest,
       SamePartitionWritersOnDistinctPagesStayConsistent) {
  constexpr int kWriters = 4;
  constexpr int kWriterOps = 60;
  constexpr size_t kPartitionPages = 8;
  constexpr Value kValueMax = 300;

  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 0;  // unlimited: no scan evicts anything
  options.space.max_pages_per_scan = 6;
  // kDrop: no query promotes the demoted partition back while it is
  // written (promotion is a coverage change the sentinel orders anyway).
  options.space.eviction_mode = EvictionMode::kDrop;
  options.buffer.partition_pages = kPartitionPages;
  auto db = MakeSmallPaperDb(1000, kValueMax, 30, options, 11);
  ASSERT_NE(db, nullptr);

  // Cover partitions 0 and 1 (pages 0..15) through ordinary misses, drop
  // every other partition so the concurrent scan has pages to index, and
  // demote partition 1: partition 0 is hot, partition 1 cold.
  auto covered = [&](IndexBuffer* buffer, size_t page) {
    return buffer->PageInBuffer(page) || buffer->counters().Get(page) == 0;
  };
  IndexBuffer* buffer = nullptr;
  for (Value v = 31; v <= kValueMax; ++v) {
    ASSERT_TRUE(
        db->ExecuteStatement(Statement::Select(Query::Point(0, v))).ok());
    buffer = db->GetBuffer(0);
    bool done = buffer != nullptr;
    for (size_t page = 0; done && page < 2 * kPartitionPages; ++page) {
      done = covered(buffer, page);
    }
    if (done) break;
  }
  ASSERT_NE(buffer, nullptr);
  for (size_t page = 0; page < 2 * kPartitionPages; ++page) {
    ASSERT_TRUE(covered(buffer, page)) << "page " << page;
  }
  for (size_t id = 2; id <= db->table().PageCount() / kPartitionPages; ++id) {
    buffer->DropPartition(id);
  }
  ASSERT_GT(buffer->DemotePartition(1), 0u);
  ASSERT_EQ(buffer->PartitionCount(), 1u);
  ASSERT_EQ(buffer->ColdPartitionCount(), 1u);
  ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());

  // The row-set oracle (column 0), and each writer's own rows: writer w
  // owns pages {2w, 2w+1} of partition 0 and of partition 1.
  std::map<Rid, Value> rows;
  std::vector<std::vector<Rid>> owned(kWriters);
  ASSERT_TRUE(db->table()
                  .heap()
                  .ForEachTuple([&](const Rid& rid, const Tuple& tuple) {
                    rows[rid] = tuple.IntValue(db->table().schema(), 0);
                    const size_t page =
                        db->table().PageNumberOf(rid).value();
                    if (page < 2 * kPartitionPages) {
                      owned[(page % kPartitionPages) / 2].push_back(rid);
                    }
                  })
                  .ok());
  const int64_t patches_before = db->metrics().Get(kMetricColdEntriesPatched);

  // Each writer's ledger: rid -> value after its statements (nullopt =
  // deleted).
  std::vector<std::map<Rid, std::optional<Value>>> ledgers(kWriters);
  std::atomic<int> failures{0};
  std::atomic<int> writers_left{kWriters};
  // Every thread starts once all are up, so the scans overlap the writes.
  std::atomic<int> waiting{kWriters + 1};
  auto start_together = [&waiting] {
    waiting.fetch_sub(1);
    while (waiting.load() > 0) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start_together();
      Rng rng(1000 + static_cast<uint64_t>(w));
      std::vector<Rid>& mine = owned[w];
      auto& ledger = ledgers[w];
      for (int i = 0; i < kWriterOps && !mine.empty(); ++i) {
        const Value v = static_cast<Value>(rng.UniformInt(1, kValueMax));
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mine.size()) - 1));
        if (i % 3 == 0) {
          Result<Rid> updated = AffectedRid(db->ExecuteStatement(
              Statement::Update(mine[at], MakeTuple(v, v, v))));
          if (!updated.ok()) {
            failures.fetch_add(1);
            continue;
          }
          ledger[mine[at]] = std::nullopt;
          ledger[updated.value()] = v;
          mine[at] = updated.value();
        } else if (i % 3 == 1) {
          if (!db->ExecuteStatement(Statement::Delete(mine[at])).ok()) {
            failures.fetch_add(1);
            continue;
          }
          ledger[mine[at]] = std::nullopt;
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
          // Lands in the lowest page with room: a hole some writer's delete
          // left in partition 0 or 1.
          Result<Rid> inserted = AffectedRid(
              db->ExecuteStatement(Statement::Insert(MakeTuple(v, v, v))));
          if (!inserted.ok()) {
            failures.fetch_add(1);
            continue;
          }
          ledger[inserted.value()] = v;
          mine.push_back(inserted.value());
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  // Indexing scans on the same buffer, covering the dropped partitions'
  // pages while the writers run; their answers race with the writers, so
  // only success is asserted.
  threads.emplace_back([&] {
    start_together();
    Value v = 31;
    do {
      if (!db->ExecuteStatement(Statement::Select(Query::Point(0, v))).ok()) {
        failures.fetch_add(1);
      }
      v = v % kValueMax + 1;
    } while (writers_left.load() > 0);
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(db->metrics().Get(kMetricColdEntriesPatched), patches_before);

  {
    std::unique_lock<std::shared_mutex> quiesce(
        db->executor()->statement_latch());
    const Status status = CheckSpaceConsistency(db->table(), *db->space());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  // Writers own disjoint rows, so their ledgers apply in any order.
  for (const auto& ledger : ledgers) {
    for (const auto& [rid, value] : ledger) {
      if (value.has_value()) {
        rows[rid] = *value;
      } else {
        rows.erase(rid);
      }
    }
  }
  std::map<Value, std::vector<Rid>> oracle;
  for (const auto& [rid, value] : rows) oracle[value].push_back(rid);
  for (Value v = 1; v <= kValueMax; ++v) {
    Result<StatementResult> result =
        db->ExecuteStatement(Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Sorted(result->rids), Sorted(oracle[v])) << "value " << v;
  }
}

}  // namespace
}  // namespace aib
