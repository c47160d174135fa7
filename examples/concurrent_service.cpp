// Concurrent query service: a thread-pool executor on top of the adaptive
// engine, with bounded admission and cooperative shared scans.
//
//   $ ./concurrent_service
//
// Walks through the service API: standing up a QueryService over a
// Database, submitting queries that resolve as futures, watching
// admission control reject work when the queue is full, and seeing K
// concurrent scans of an unindexed column share one pass of page reads.

#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "service/query_service.h"
#include "workload/database.h"

using namespace aib;

int main() {
  // 1. A table with two integer columns: A gets a partial index, B stays
  //    unindexed so its queries are full scans — the shared-scan case.
  //    The small buffer pool makes page reads the dominant cost.
  DatabaseOptions options;
  options.space.max_entries = 50000;
  options.space.max_pages_per_scan = 500;
  options.max_tuples_per_page = 50;
  options.buffer_pool_pages = 64;
  Database db(Schema::PaperSchema(/*int_columns=*/2), options);

  std::cout << "loading 50,000 tuples...\n";
  for (int i = 0; i < 50000; ++i) {
    Tuple tuple({/*A=*/i % 10000 + 1, /*B=*/(i * 7) % 10000 + 1},
                {"payload-" + std::to_string(i)});
    if (Result<Rid> rid = db.LoadTuple(tuple); !rid.ok()) {
      std::cerr << "load failed: " << rid.status().ToString() << "\n";
      return 1;
    }
  }
  if (Status s = db.CreatePartialIndex(0, ValueCoverage::Range(1, 1000));
      !s.ok()) {
    std::cerr << "index failed: " << s.ToString() << "\n";
    return 1;
  }

  // 2. The service: 4 workers draining a bounded queue. Submissions
  //    return futures; a full queue rejects with a retriable Busy status
  //    instead of blocking the caller.
  QueryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 32;
  QueryService service(db.executor(), service_options);
  std::cout << "service up: " << service.num_workers()
            << " workers, queue capacity "
            << service.options().queue_capacity << "\n\n";

  // 3. Covered queries on A run latch-free through the partial index;
  //    misses adapt the Index Buffer under the space latch — both fully
  //    concurrent-safe.
  std::vector<std::future<Result<StatementResult>>> futures;
  for (int i = 0; i < 8; ++i) {
    const Statement covered = Statement::Select(Query::Point(0, 100 + i));
    const Statement uncovered =
        Statement::Select(Query::Point(0, 5000 + i * 10));
    auto hit = service.Submit(covered);
    auto miss = service.Submit(uncovered);
    if (hit.ok()) futures.push_back(std::move(hit).value());
    if (miss.ok()) futures.push_back(std::move(miss).value());
  }
  size_t rows = 0;
  for (auto& future : futures) {
    Result<StatementResult> result = future.get();
    if (result.ok()) rows += result->rids.size();
  }
  std::cout << "column A: " << futures.size()
            << " concurrent queries returned " << rows << " rows\n";

  // 4. Queries on unindexed B are full scans. Submitted together, the
  //    shared-scan manager attaches them to one circular cursor: each
  //    wave of 4 concurrent scans (one per worker) costs about one pass
  //    of page reads instead of four — ~4 passes for the batch of 16
  //    rather than 16.
  const int64_t reads_before = db.metrics().Get(kMetricPagesRead);
  futures.clear();
  for (int i = 0; i < 16; ++i) {
    auto submitted = service.Submit(Statement::Select(Query::Point(1, 4242)));
    if (!submitted.ok()) {
      std::cerr << "rejected: " << submitted.status().ToString() << "\n";
      continue;
    }
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) (void)future.get();
  const int64_t reads = db.metrics().Get(kMetricPagesRead) - reads_before;
  std::cout << "column B: " << futures.size()
            << " concurrent full scans over " << db.table().PageCount()
            << " pages cost " << reads << " page reads ("
            << db.metrics().Get(kMetricSharedScanAttaches)
            << " scans attached to an in-flight cursor)\n\n";

  // 5. Service accounting, in the database's one metrics registry.
  const Metrics& metrics = db.metrics();
  std::cout << "submitted=" << metrics.Get(kMetricServiceSubmitted)
            << " executed=" << metrics.Get(kMetricServiceExecuted)
            << " rejected=" << metrics.Get(kMetricServiceRejected) << "\n";
  service.Shutdown();
  return 0;
}
