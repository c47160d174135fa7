#include "service/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "core/consistency.h"

namespace aib {
namespace {

using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::Sorted;

/// The query mix of the stress tests: deterministic pseudo-random mix of
/// covered points, uncovered points (indexing scans), and hybrid ranges
/// crossing the coverage boundary.
std::vector<Query> MakeWorkload(size_t count) {
  std::vector<Query> queries;
  queries.reserve(count);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t r = static_cast<uint32_t>(state >> 33);
    const ColumnId column = static_cast<ColumnId>(r % 2);
    const uint32_t kind = (r / 2) % 10;
    if (kind < 3) {
      queries.push_back(Query::Point(column, 1 + (r % 30)));  // covered
    } else if (kind < 9) {
      queries.push_back(Query::Point(column, 31 + (r % 270)));  // miss
    } else {
      const Value lo = 25 + (r % 10);  // straddles covered_hi = 30
      queries.push_back(Query::Range(column, lo, lo + 10));
    }
  }
  return queries;
}

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.max_tuples_per_page = 10;
    options.space.max_entries = 3000;
    options.space.max_pages_per_scan = 40;
    db_ = MakeSmallPaperDb(1000, 300, 30, options);
    ASSERT_NE(db_, nullptr);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(QueryServiceTest, SingleWorkerMatchesSequentialExecutor) {
  // A second, identically-built database serves as the sequential oracle:
  // one worker drains the FIFO queue in submission order, so every query
  // must see exactly the adaptive state the sequential run sees.
  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 3000;
  options.space.max_pages_per_scan = 40;
  auto oracle = MakeSmallPaperDb(1000, 300, 30, options);
  ASSERT_NE(oracle, nullptr);

  const std::vector<Query> workload = MakeWorkload(120);
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.queue_capacity = workload.size();
  QueryService service(db_->executor(), service_options);

  std::vector<std::future<Result<StatementResult>>> futures;
  for (const Query& query : workload) {
    Result<std::future<Result<StatementResult>>> submitted =
        service.Submit(Statement::Select(query));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    Result<StatementResult> concurrent = futures[i].get();
    Result<StatementResult> sequential =
        oracle->executor()->ExecuteStatement(Statement::Select(workload[i]));
    ASSERT_TRUE(concurrent.ok());
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(concurrent->rids, sequential->rids) << "query " << i;
    EXPECT_EQ(concurrent->stats.result_count,
              sequential->stats.result_count);
    EXPECT_EQ(concurrent->stats.pages_scanned,
              sequential->stats.pages_scanned)
        << "query " << i;
    EXPECT_EQ(concurrent->stats.pages_skipped,
              sequential->stats.pages_skipped);
    EXPECT_EQ(concurrent->stats.used_index_buffer,
              sequential->stats.used_index_buffer);
    EXPECT_DOUBLE_EQ(concurrent->stats.cost, sequential->stats.cost);
  }
  const Metrics& metrics = db_->metrics();
  EXPECT_EQ(metrics.Get(kMetricServiceSubmitted),
            static_cast<int64_t>(workload.size()));
  EXPECT_EQ(metrics.Get(kMetricServiceExecuted),
            static_cast<int64_t>(workload.size()));
  EXPECT_EQ(metrics.Get(kMetricServiceRejected), 0);
}

TEST_F(QueryServiceTest, MultiWorkerStressKeepsResultsAndCountersSane) {
  constexpr size_t kQueries = 1000;
  constexpr size_t kWorkers = 4;

  // Ground truth per (column, value) from one sequential pass.
  std::map<std::pair<ColumnId, Value>, std::vector<Rid>> truth;
  const Schema& schema = db_->table().schema();
  ASSERT_TRUE(db_->table()
                  .heap()
                  .ForEachTuple([&](const Rid& rid, const Tuple& tuple) {
                    for (ColumnId c = 0; c < 2; ++c) {
                      truth[{c, tuple.IntValue(schema, c)}].push_back(rid);
                    }
                  })
                  .ok());
  auto expected_for = [&](const Query& query) {
    std::vector<Rid> rids;
    for (Value v = query.lo; v <= query.hi; ++v) {
      auto it = truth.find({query.column, v});
      if (it == truth.end()) continue;
      rids.insert(rids.end(), it->second.begin(), it->second.end());
    }
    return Sorted(std::move(rids));
  };

  const std::vector<Query> workload = MakeWorkload(kQueries);
  QueryServiceOptions service_options;
  service_options.num_workers = kWorkers;
  service_options.queue_capacity = 64;  // small enough to see backpressure
  QueryService service(db_->executor(), service_options);
  ASSERT_EQ(service.num_workers(), kWorkers);

  // Submit from several producer threads, retrying on Busy, so admission
  // control is exercised without losing queries.
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
              service.Submit(Statement::Select(workload[i]));
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
  size_t buffer_queries = 0;
  for (auto& per_producer : futures) {
    for (auto& [index, future] : per_producer) {
      Result<StatementResult> result = future.get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Sorted(result->rids), expected_for(workload[index]))
          << "query " << index;
      EXPECT_EQ(result->stats.result_count, result->rids.size());
      if (result->stats.used_index_buffer) {
        // Every indexing scan partitions the table between scanned and
        // skipped pages — no page is lost or double-counted even under
        // concurrent counter updates.
        EXPECT_EQ(result->stats.pages_scanned + result->stats.pages_skipped,
                  pages)
            << "query " << index;
        ++buffer_queries;
      }
    }
  }
  EXPECT_GT(buffer_queries, 0u);

  EXPECT_EQ(db_->metrics().Get(kMetricServiceExecuted),
            static_cast<int64_t>(kQueries));
  EXPECT_EQ(db_->metrics().Get(kMetricServiceSubmitted),
            static_cast<int64_t>(kQueries));

  // The adaptive state survived 4-way concurrency structurally intact.
  ASSERT_NE(db_->space(), nullptr);
  std::unique_lock<std::shared_mutex> quiesce(
      db_->executor()->statement_latch());
  EXPECT_TRUE(CheckSpaceConsistency(db_->table(), *db_->space()).ok());
}

TEST_F(QueryServiceTest, SharedScanServiceAnswersUnindexedColumnQueries) {
  // Column 2 has an index in this fixture, so build an index-free database
  // to route through the cooperative-scan path.
  PaperSetupOptions options;
  options.num_tuples = 800;
  options.value_min = 1;
  options.value_max = 300;
  options.payload_min = 1;
  options.payload_max = 64;
  options.seed = 11;
  options.create_indexes = false;
  options.db.max_tuples_per_page = 10;
  options.db.buffer_pool_pages = 16;
  auto db = BuildPaperDatabase(options);
  ASSERT_TRUE(db.ok());

  QueryServiceOptions service_options;
  service_options.num_workers = 4;
  QueryService service((*db)->executor(), service_options);

  std::vector<std::future<Result<StatementResult>>> futures;
  for (int i = 0; i < 16; ++i) {
    Result<std::future<Result<StatementResult>>> submitted =
        service.Submit(Statement::Select(Query::Point(0, 42)));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  const std::vector<Rid> expected =
      Sorted(GroundTruth(**db, 0, 42, 42));
  for (auto& future : futures) {
    Result<StatementResult> result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Sorted(result->rids), expected);
    EXPECT_EQ(result->stats.pages_scanned, (*db)->table().PageCount());
  }
}

TEST_F(QueryServiceTest, CountsEachOutcomeOnceInMetrics) {
  // An index-free table four times its pool: every select is a full scan
  // on the shared-scan path, and page 0 is read from disk each time.
  PaperSetupOptions options;
  options.num_tuples = 1000;
  options.value_min = 1;
  options.value_max = 300;
  options.payload_min = 1;
  options.payload_max = 64;
  options.seed = 5;
  options.create_indexes = false;
  options.db.max_tuples_per_page = 10;
  options.db.buffer_pool_pages = 16;
  auto built = BuildPaperDatabase(options);
  ASSERT_TRUE(built.ok());
  Database& db = **built;
  const Metrics& metrics = db.metrics();
  const Statement select = Statement::Select(Query::Point(0, 42));

  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.queue_capacity = 4;
  QueryService service(db.executor(), service_options);

  // Ok.
  ASSERT_TRUE(service.ExecuteStatement(select).ok());
  // Retried: a corrupt read of page 0 fails the first run, the re-run
  // reads it cleanly.
  FaultInjector& injector = db.catalog().disk().fault_injector();
  injector.InjectPageFault(FaultOp::kRead, db.table().heap().PageIdAt(0),
                           FaultKind::kCorruption);
  ASSERT_TRUE(service.ExecuteStatement(select).ok());
  EXPECT_EQ(injector.faults_injected(), 1u);

  // Quiesce the engine: the worker stops at the membrane of the next
  // statement it takes, and everything submitted after it queues.
  std::unique_lock<std::shared_mutex> quiesce(
      db.executor()->statement_latch());
  SubmitOptions mid_run;
  mid_run.deadline = std::chrono::milliseconds(100);
  auto timed_out_mid_run = service.Submit(select, mid_run);
  ASSERT_TRUE(timed_out_mid_run.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  SubmitOptions in_queue;
  in_queue.deadline = std::chrono::milliseconds(1);
  auto timed_out_in_queue = service.Submit(select, in_queue);
  ASSERT_TRUE(timed_out_in_queue.ok());
  SubmitOptions cancel;
  cancel.cancel = MakeCancelToken();
  auto cancelled = service.Submit(select, cancel);
  ASSERT_TRUE(cancelled.ok());
  // Fill the queue until it refuses one statement.
  std::vector<std::future<Result<StatementResult>>> fill;
  for (;;) {
    Result<std::future<Result<StatementResult>>> submitted =
        service.Submit(select);
    if (!submitted.ok()) {
      ASSERT_TRUE(submitted.status().IsBusy());
      break;
    }
    fill.push_back(std::move(submitted).value());
  }
  cancel.cancel->store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  quiesce.unlock();

  // The first expires while the worker holds it, the second in the queue.
  EXPECT_TRUE(timed_out_mid_run->get().status().IsTimeout());
  EXPECT_TRUE(timed_out_in_queue->get().status().IsTimeout());
  EXPECT_TRUE(cancelled->get().status().IsCancelled());
  for (auto& future : fill) EXPECT_TRUE(future.get().ok());

  const int64_t accepted = 5 + static_cast<int64_t>(fill.size());
  EXPECT_EQ(metrics.Get(kMetricServiceSubmitted), accepted);
  EXPECT_EQ(metrics.Get(kMetricServiceExecuted), accepted);
  EXPECT_EQ(metrics.Get(kMetricServiceRejected), 1);
  EXPECT_EQ(metrics.Get(kMetricServiceRetried), 1);
  EXPECT_EQ(metrics.Get(kMetricQueriesTimedOut), 2);
  EXPECT_EQ(metrics.Get(kMetricQueriesCancelled), 1);
  EXPECT_EQ(metrics.Get(kMetricDegradedQueries), 0);
  EXPECT_EQ(metrics.Get(kMetricDmlStatements), 0);
}

TEST_F(QueryServiceTest, SubmitAfterShutdownIsCancelled) {
  // Queries and DML share the late-arrival contract: anything submitted
  // after Shutdown() fails with Cancelled (the same status a request gets
  // when its cancel token fires), not InvalidArgument.
  QueryServiceOptions service_options;
  service_options.num_workers = 2;
  QueryService service(db_->executor(), service_options);
  Result<StatementResult> before =
      service.ExecuteStatement(Statement::Select(Query::Point(0, 10)));
  ASSERT_TRUE(before.ok());
  service.Shutdown();
  Result<std::future<Result<StatementResult>>> after =
      service.Submit(Statement::Select(Query::Point(0, 10)));
  EXPECT_TRUE(after.status().IsCancelled());
  Result<std::future<Result<StatementResult>>> statement_after =
      service.Submit(Statement::Insert(Tuple({40, 40, 40}, {"x"})));
  EXPECT_TRUE(statement_after.status().IsCancelled());
  Result<StatementResult> execute_after =
      service.ExecuteStatement(Statement::Delete(Rid{0, 0}));
  EXPECT_TRUE(execute_after.status().IsCancelled());
  // A closed queue is not a full one: nothing counts as a Busy rejection.
  EXPECT_EQ(db_->metrics().Get(kMetricServiceRejected), 0);
}

TEST_F(QueryServiceTest, DestructorDrainsAcceptedRequests) {
  std::vector<std::future<Result<StatementResult>>> futures;
  {
    QueryServiceOptions service_options;
    service_options.num_workers = 2;
    service_options.queue_capacity = 64;
    QueryService service(db_->executor(), service_options);
    for (int i = 0; i < 32; ++i) {
      Result<std::future<Result<StatementResult>>> submitted =
          service.Submit(Statement::Select(Query::Point(0, 31 + i)));
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
  }  // ~QueryService: drain + join
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());  // every accepted future resolved
  }
}

}  // namespace
}  // namespace aib
