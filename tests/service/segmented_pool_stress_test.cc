// Segmented buffer-pool race stress: QueryService workers, shared-scan
// drivers, and morsel scan workers all hammer one latch-sharded segmented
// BufferPool at once. The pool is much smaller than the table, so
// fetching, eviction, promotion, and demotion all fire concurrently. Lives
// in the `concurrency` label so CI runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "exec/morsel.h"
#include "service/query_service.h"
#include "workload/database.h"

namespace aib {
namespace {

using ::aib::testing::Sorted;

constexpr Value kValueMax = 300;

/// Single unindexed int column: every query is a guaranteed full scan, the
/// workload scan-resistant eviction exists for.
std::unique_ptr<Database> MakeSmallPoolDb(size_t num_tuples) {
  DatabaseOptions options;
  options.enable_index_buffer = false;
  options.max_tuples_per_page = 10;
  options.buffer_pool_pages = 16;  // far smaller than the table
  auto db = std::make_unique<Database>(Schema::PaperSchema(1, 16), options);
  Rng rng(314159);
  for (size_t i = 0; i < num_tuples; ++i) {
    EXPECT_TRUE(
        db->LoadTuple(Tuple({static_cast<Value>(rng.UniformInt(1, kValueMax))},
                            {"pay"}))
            .ok());
  }
  return db;
}

/// Deterministic range mix; every query scans the whole table.
std::vector<Query> MakeWorkload(size_t count) {
  std::vector<Query> queries;
  queries.reserve(count);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t r = static_cast<uint32_t>(state >> 33);
    const Value lo = 1 + (r % 150);
    queries.push_back(Query::Range(0, lo, lo + 50 + (r % 100)));
  }
  return queries;
}

std::vector<Rid> ExpectedFor(const Database& db, const Query& query) {
  return Sorted(::aib::testing::GroundTruth(db, 0, query.lo, query.hi));
}

/// Submits the workload from two producer threads (retrying on Busy) and
/// checks every result against the full-scan oracle.
void RunWorkload(Database* db, QueryService* service,
                 const std::vector<Query>& workload) {
  constexpr size_t kProducers = 2;
  std::vector<
      std::vector<std::pair<size_t, std::future<Result<StatementResult>>>>>
      futures(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < workload.size(); i += kProducers) {
        for (;;) {
          Result<std::future<Result<StatementResult>>> submitted =
              service->Submit(Statement::Select(workload[i]));
          if (submitted.ok()) {
            futures[p].emplace_back(i, std::move(submitted).value());
            break;
          }
          ASSERT_TRUE(submitted.status().IsBusy());
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (auto& per_producer : futures) {
    for (auto& [index, future] : per_producer) {
      Result<StatementResult> result = future.get();
      ASSERT_TRUE(result.ok())
          << "query " << index << ": " << result.status().ToString();
      EXPECT_EQ(Sorted(result->rids), ExpectedFor(*db, workload[index]))
          << "query " << index;
    }
  }
}

TEST(SegmentedPoolStressTest, SharedScanFanInMatchesOracle) {
  // Cooperative scans at fan-in: drivers hand pages to attached members
  // while the pool evicts under them.
  auto db = MakeSmallPoolDb(1000);
  const std::vector<Query> workload = MakeWorkload(64);
  QueryServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  QueryService service(db->executor(), options);
  RunWorkload(db.get(), &service, workload);
  service.Shutdown();

  EXPECT_EQ(db->metrics().Get(kMetricServiceExecuted),
            static_cast<int64_t>(workload.size()));
  EXPECT_GT(db->metrics().Get(kMetricScanPagesServed), 0);
}

TEST(SegmentedPoolStressTest, MorselFanInMatchesOracle) {
  // The other scan path: shared scans off, so every query fans out over
  // the morsel dispatcher, whose workers fetch from the same small pool.
  MorselDispatcher dispatcher(3);  // outlives the executor that borrows it
  auto db = MakeSmallPoolDb(1000);
  ParallelScanOptions parallel;
  parallel.min_pages_for_parallel = 1;
  parallel.morsel_pages = 4;
  db->executor()->SetParallelScan(&dispatcher, parallel);
  const std::vector<Query> workload = MakeWorkload(48);
  QueryServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  options.shared_scans = false;
  QueryService service(db->executor(), options);
  RunWorkload(db.get(), &service, workload);
  service.Shutdown();

  EXPECT_EQ(db->metrics().Get(kMetricServiceExecuted),
            static_cast<int64_t>(workload.size()));
  // The pool is far too small for the table, so the concurrent scans kept
  // evicting each other's pages and reading them again.
  EXPECT_GT(db->metrics().Get(kMetricBufferMisses),
            static_cast<int64_t>(db->table().PageCount()));
}

}  // namespace
}  // namespace aib
