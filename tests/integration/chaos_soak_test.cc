// Chaos tests: the full query path under seeded programmable faults. The
// recovery-free property of the Index Buffer is what makes these tests
// strong — whatever the injector does to a scan, every query must still
// return exactly the fault-free answer, and every quarantine must leave
// the adaptive state consistent.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "core/consistency.h"
#include "service/query_service.h"
#include "storage/fault_injector.h"

namespace aib {
namespace {

using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::Sorted;

/// Same deterministic paper mix as the service stress tests: covered
/// points, uncovered points (indexing scans), and ranges straddling the
/// coverage boundary, on two indexed columns.
std::vector<Query> MakeChaosWorkload(size_t count) {
  std::vector<Query> queries;
  queries.reserve(count);
  uint64_t state = 0xc0ffee123456789bull;
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

class ChaosSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.max_tuples_per_page = 10;
    options.space.max_entries = 3000;
    options.space.max_pages_per_scan = 40;
    // A pool far smaller than the table: page fetches keep going to the
    // DiskManager, where the injector sits. A table-sized pool would cache
    // everything after the first pass and starve the chaos of faults.
    options.buffer_pool_pages = 16;
    db_ = MakeSmallPaperDb(1000, 300, 30, options);
    ASSERT_NE(db_, nullptr);
    BuildTruth();
  }

  /// Fault-free oracle: per-(column, value) rid lists from one clean
  /// sequential pass, taken before any injector is armed.
  void BuildTruth() {
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

  FaultInjector& injector() {
    return db_->catalog().disk().fault_injector();
  }

  Status CheckSpace() {
    // Suspended: the checker walks the table through the faulty disk path,
    // and a fresh injected fault would fail the check for the wrong reason.
    FaultInjector::ScopedSuspend suspend;
    // Quiesce: the statement membrane held exclusively keeps every scan,
    // probe, and DML statement out while the checker walks the space (the
    // demoted space latch no longer excludes statements).
    std::unique_lock<std::shared_mutex> quiesce(
        db_->executor()->statement_latch());
    return CheckSpaceConsistency(db_->table(), *db_->space());
  }

  std::unique_ptr<Database> db_;
  std::map<std::pair<ColumnId, Value>, std::vector<Rid>> truth_;
};

// The acceptance soak: >= 10k queries through the concurrent service with
// transient + corruption + latency faults armed. Every future resolves,
// every answer equals the fault-free oracle, and the space is consistent
// at the end.
TEST_F(ChaosSoakTest, SoakMatchesFaultFreeOracle) {
  constexpr size_t kQueries = 10000;
  const std::vector<Query> workload = MakeChaosWorkload(kQueries);

  // Rates sized to the workload's disk exposure: scan legs touch a few
  // thousand pages across the soak, so a ~0.5% corruption-per-read rate
  // makes quarantines likely while a generous whole-query retry budget
  // keeps permanent failures out of reach for any worker interleaving of
  // the fault stream.
  FaultInjectorOptions fault_options;
  fault_options.seed = 2026;
  fault_options.read_fault_rate = 0.006;
  fault_options.write_fault_rate = 0.006;
  fault_options.corruption_fraction = 0.8;
  fault_options.latency_rate = 0.01;
  injector().Arm(fault_options);

  // Which probabilistic draws land in indexing scans depends on the worker
  // interleaving, so one quarantine is made certain: a corruption on the
  // next read of a page holding no covered value of either queried
  // column. Covered probes and hybrid tails never fetch such a page, and
  // no buffer entry points at it before an indexing scan has read it, so
  // its first read from disk is an indexing scan's (or the plain fallback
  // of a scan that already quarantined). It is taken from the front half
  // of the table, which the oracle pass above swept out of the 16-frame
  // pool.
  std::set<PageId> covered_pages;
  for (ColumnId c = 0; c < 2; ++c) {
    for (Value v = 1; v <= 30; ++v) {
      auto it = truth_.find({c, v});
      if (it == truth_.end()) continue;
      for (const Rid& rid : it->second) covered_pages.insert(rid.page_id);
    }
  }
  const HeapFile& heap = db_->table().heap();
  PageId uncovered_page = kInvalidPageId;
  for (size_t p = 0; p < heap.PageCount() / 2; ++p) {
    if (!covered_pages.contains(heap.PageIdAt(p))) {
      uncovered_page = heap.PageIdAt(p);
      break;
    }
  }
  ASSERT_NE(uncovered_page, kInvalidPageId);
  injector().InjectPageFault(FaultOp::kRead, uncovered_page,
                             FaultKind::kCorruption);

  QueryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 128;
  service_options.max_query_retries = 6;
  QueryService service(db_->executor(), service_options);

  std::vector<std::pair<size_t, std::future<Result<StatementResult>>>> futures;
  futures.reserve(kQueries);
  for (size_t i = 0; i < workload.size(); ++i) {
    for (;;) {
      Result<std::future<Result<StatementResult>>> submitted =
          service.Submit(Statement::Select(workload[i]));
      if (submitted.ok()) {
        futures.emplace_back(i, std::move(submitted).value());
        break;
      }
      ASSERT_TRUE(submitted.status().IsBusy());
      std::this_thread::yield();
    }
  }

  for (auto& [index, future] : futures) {
    Result<StatementResult> result = future.get();
    ASSERT_TRUE(result.ok())
        << "query " << index << ": " << result.status().ToString();
    EXPECT_EQ(Sorted(result->rids), ExpectedFor(workload[index]))
        << "query " << index;
  }
  service.Shutdown();

  const Metrics& metrics = db_->metrics();
  EXPECT_EQ(metrics.Get(kMetricServiceSubmitted),
            static_cast<int64_t>(kQueries));
  EXPECT_EQ(metrics.Get(kMetricServiceExecuted),
            static_cast<int64_t>(kQueries));  // no hangs
  // The run was an actual chaos run, not a silently disarmed one.
  EXPECT_GT(metrics.Get(kMetricFaultsInjected), 0);
  EXPECT_GT(metrics.Get(kMetricFaultLatencyTicks), 0);
  EXPECT_GT(metrics.Get(kMetricPartitionsQuarantined), 0);
  EXPECT_GT(metrics.Get(kMetricDegradedQueries) +
                metrics.Get(kMetricServiceRetried),
            0);

  injector().Disarm();
  EXPECT_TRUE(CheckSpace().ok());
}

// Single-threaded chaos: after every query that caused a quarantine, the
// Index Buffer Space must verify consistent — the repair path may not
// leave even a transiently wrong counter behind.
TEST_F(ChaosSoakTest, EveryQuarantineLeavesConsistentState) {
  FaultInjectorOptions fault_options;
  fault_options.seed = 31337;
  fault_options.read_fault_rate = 0.004;
  fault_options.corruption_fraction = 0.5;
  injector().Arm(fault_options);

  const std::vector<Query> workload = MakeChaosWorkload(2000);
  int64_t last_quarantined = 0;
  size_t checks = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    // Mimic the service's whole-query retry: re-running after transient or
    // corruption failures is always legal on recovery-free state.
    Result<StatementResult> result =
        db_->executor()->ExecuteStatement(Statement::Select(workload[i]));
    for (int attempt = 0; !result.ok() && attempt < 20; ++attempt) {
      ASSERT_TRUE(result.status().IsTransient() ||
                  result.status().IsCorruption())
          << result.status().ToString();
      result =
          db_->executor()->ExecuteStatement(Statement::Select(workload[i]));
    }
    ASSERT_TRUE(result.ok()) << "query " << i;
    EXPECT_EQ(Sorted(result->rids), ExpectedFor(workload[i]))
        << "query " << i;
    const int64_t quarantined =
        db_->metrics().Get(kMetricPartitionsQuarantined);
    if (quarantined != last_quarantined) {
      last_quarantined = quarantined;
      ++checks;
      ASSERT_TRUE(CheckSpace().ok()) << "after quarantine #" << quarantined;
    }
  }
  EXPECT_GT(checks, 0u) << "fault rate never hit an indexing scan";
  EXPECT_GT(db_->metrics().Get(kMetricDegradedQueries), 0);
  injector().Disarm();
  EXPECT_TRUE(CheckSpace().ok());
}

// A query whose deadline expired in the queue resolves with Timeout while
// every other in-flight query completes normally.
TEST_F(ChaosSoakTest, ExpiredDeadlineTimesOutWithoutDisturbingOthers) {
  QueryServiceOptions service_options;
  service_options.num_workers = 1;  // FIFO: the deadlined query waits
  service_options.queue_capacity = 512;
  QueryService service(db_->executor(), service_options);

  // 200 cold uncovered queries in front: the single worker needs well over
  // a millisecond to drain them.
  std::vector<std::future<Result<StatementResult>>> normal;
  for (int i = 0; i < 200; ++i) {
    Result<std::future<Result<StatementResult>>> submitted =
        service.Submit(Statement::Select(Query::Point(i % 2, 31 + i)));
    ASSERT_TRUE(submitted.ok());
    normal.push_back(std::move(submitted).value());
  }
  SubmitOptions deadline_options;
  deadline_options.deadline = std::chrono::milliseconds(1);
  Result<std::future<Result<StatementResult>>> deadlined =
      service.Submit(Statement::Select(Query::Point(0, 40)), deadline_options);
  ASSERT_TRUE(deadlined.ok());

  for (auto& future : normal) {
    EXPECT_TRUE(future.get().ok());
  }
  const Result<StatementResult> result = deadlined->get();
  EXPECT_TRUE(result.status().IsTimeout()) << result.status().ToString();
  EXPECT_GE(db_->metrics().Get(kMetricQueriesTimedOut), 1);
}

TEST_F(ChaosSoakTest, CancelTokenResolvesFutureAsCancelled) {
  QueryServiceOptions service_options;
  service_options.num_workers = 2;
  QueryService service(db_->executor(), service_options);

  SubmitOptions cancel_options;
  cancel_options.cancel = MakeCancelToken();
  cancel_options.cancel->store(true);  // cancelled before a worker sees it
  Result<std::future<Result<StatementResult>>> cancelled =
      service.Submit(Statement::Select(Query::Point(0, 40)), cancel_options);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_TRUE(cancelled->get().status().IsCancelled());

  // An untouched token does not perturb the query.
  SubmitOptions live_options;
  live_options.cancel = MakeCancelToken();
  Result<std::future<Result<StatementResult>>> live =
      service.Submit(Statement::Select(Query::Point(0, 10)), live_options);
  ASSERT_TRUE(live.ok());
  Result<StatementResult> result = live->get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->rids), ExpectedFor(Query::Point(0, 10)));
  EXPECT_GE(db_->metrics().Get(kMetricQueriesCancelled), 1);
}

// Executor-level determinism: a pre-expired control aborts before any page
// is touched and is accounted once in the metrics registry.
TEST_F(ChaosSoakTest, PreExpiredControlTimesOutDeterministically) {
  QueryControl control;
  control.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  Result<StatementResult> result = db_->executor()->ExecuteStatement(
      Statement::Select(Query::Point(0, 40)), &control);
  EXPECT_TRUE(result.status().IsTimeout());
  EXPECT_EQ(db_->metrics().Get(kMetricQueriesTimedOut), 1);

  QueryControl cancel_control;
  cancel_control.cancel = MakeCancelToken();
  cancel_control.cancel->store(true);
  result = db_->executor()->ExecuteStatement(
      Statement::Select(Query::Point(0, 40)), &cancel_control);
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(db_->metrics().Get(kMetricQueriesCancelled), 1);

  // The aborted queries left no partial adaptive state behind.
  EXPECT_TRUE(CheckSpace().ok());
}

}  // namespace
}  // namespace aib
