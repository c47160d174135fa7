// Morsel-dispatcher stress through the full service stack: QueryService
// workers executing concurrently, each query's scan fanned out over a
// MorselDispatcher set on the executor. Lives in the
// `concurrency` label so CI runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "core/consistency.h"
#include "exec/morsel.h"
#include "service/query_service.h"
#include "storage/fault_injector.h"

namespace aib {
namespace {

using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::Sorted;

/// Same deterministic mix as the service stress tests: covered points,
/// indexing-scan misses, and ranges straddling covered_hi = 30.
std::vector<Query> MakeWorkload(size_t count) {
  std::vector<Query> queries;
  queries.reserve(count);
  uint64_t state = 0x2545f4914f6cdd1dull;
  for (size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t r = static_cast<uint32_t>(state >> 33);
    const ColumnId column = static_cast<ColumnId>(r % 2);
    const uint32_t kind = (r / 2) % 10;
    if (kind < 3) {
      queries.push_back(Query::Point(column, 1 + (r % 30)));
    } else if (kind < 9) {
      queries.push_back(Query::Point(column, 31 + (r % 270)));
    } else {
      const Value lo = 25 + (r % 10);
      queries.push_back(Query::Range(column, lo, lo + 10));
    }
  }
  return queries;
}

class MorselStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.max_tuples_per_page = 10;
    options.space.max_entries = 3000;
    options.space.max_pages_per_scan = 40;
    // Pool smaller than the table so chaos runs keep hitting the disk path
    // where the injector sits.
    options.buffer_pool_pages = 16;
    db_ = MakeSmallPaperDb(1000, 300, 30, options);
    ASSERT_NE(db_, nullptr);
    ParallelScanOptions parallel;
    parallel.min_pages_for_parallel = 1;
    parallel.morsel_pages = 4;
    db_->executor()->SetParallelScan(&dispatcher_, parallel);
    const Schema& schema = db_->table().schema();
    ASSERT_TRUE(db_->table()
                    .heap()
                    .ForEachTuple([&](const Rid& rid, const Tuple& tuple) {
                      for (ColumnId c = 0; c < 2; ++c) {
                        truth_[{c, tuple.IntValue(schema, c)}].push_back(rid);
                      }
                    })
                    .ok());
  }

  std::vector<Rid> ExpectedFor(const Query& query) const {
    std::vector<Rid> rids;
    for (Value v = query.lo; v <= query.hi; ++v) {
      auto it = truth_.find({query.column, v});
      if (it == truth_.end()) continue;
      rids.insert(rids.end(), it->second.begin(), it->second.end());
    }
    return Sorted(std::move(rids));
  }

  QueryServiceOptions MorselServiceOptions() const {
    QueryServiceOptions options;
    options.num_workers = 4;
    options.queue_capacity = 64;
    return options;
  }

  /// Submits the workload from two producer threads (retrying on Busy) and
  /// checks every resolved result against the fault-free oracle.
  void RunWorkload(QueryService* service, const std::vector<Query>& workload) {
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

    const size_t pages = db_->table().PageCount();
    for (auto& per_producer : futures) {
      for (auto& [index, future] : per_producer) {
        Result<StatementResult> result = future.get();
        ASSERT_TRUE(result.ok())
            << "query " << index << ": " << result.status().ToString();
        EXPECT_EQ(Sorted(result->rids), ExpectedFor(workload[index]))
            << "query " << index;
        EXPECT_EQ(result->stats.result_count, result->rids.size());
        if (result->stats.used_index_buffer && !result->stats.degraded) {
          EXPECT_EQ(result->stats.pages_scanned + result->stats.pages_skipped,
                    pages)
              << "query " << index;
        }
      }
    }
  }

  Status CheckSpace() {
    FaultInjector::ScopedSuspend suspend;
    // Quiesce via the statement membrane — the demoted space latch no
    // longer excludes statements.
    std::unique_lock<std::shared_mutex> quiesce(
        db_->executor()->statement_latch());
    return CheckSpaceConsistency(db_->table(), *db_->space());
  }

  /// 3 helpers + the calling worker; declared first so it outlives the
  /// executor that borrows it.
  MorselDispatcher dispatcher_{3};
  std::unique_ptr<Database> db_;
  std::map<std::pair<ColumnId, Value>, std::vector<Rid>> truth_;
};

TEST_F(MorselStressTest, ConcurrentQueriesWithParallelScansMatchOracle) {
  const std::vector<Query> workload = MakeWorkload(400);
  QueryService service(db_->executor(), MorselServiceOptions());
  RunWorkload(&service, workload);
  service.Shutdown();

  EXPECT_EQ(db_->metrics().Get(kMetricServiceExecuted),
            static_cast<int64_t>(workload.size()));
  EXPECT_TRUE(CheckSpace().ok());
}

TEST_F(MorselStressTest, ParallelScansSurviveRateBasedChaos) {
  // Transient + corruption faults under the same 4x4 (service workers x
  // scan workers) fan-out: the service's whole-query retry budget absorbs
  // the faults and every answer still matches the fault-free oracle.
  FaultInjectorOptions fault_options;
  fault_options.seed = 77;
  fault_options.read_fault_rate = 0.004;
  fault_options.corruption_fraction = 0.5;
  db_->catalog().disk().fault_injector().Arm(fault_options);

  const std::vector<Query> workload = MakeWorkload(400);
  QueryServiceOptions options = MorselServiceOptions();
  options.max_query_retries = 6;
  QueryService service(db_->executor(), options);
  RunWorkload(&service, workload);
  service.Shutdown();

  EXPECT_EQ(db_->metrics().Get(kMetricServiceExecuted),
            static_cast<int64_t>(workload.size()));
  EXPECT_GT(db_->metrics().Get(kMetricFaultsInjected), 0);
  db_->catalog().disk().fault_injector().Disarm();
  EXPECT_TRUE(CheckSpace().ok());
}

}  // namespace
}  // namespace aib
