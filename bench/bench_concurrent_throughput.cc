// Concurrent query throughput: queries/second and total pages read as the
// QueryService worker count grows (1, 2, 4, 8), with and without the
// shared-scan manager.
//
// The workload is the worst case for an unshared engine: point queries on
// an *unindexed* column, each of which is a full table scan, against a
// buffer pool far smaller than the table (so every scan pays a pass of
// page reads). Without sharing, Q queries cost ~Q passes of reads; with
// the shared-scan manager, overlapping scans attach to one circular cursor
// and the whole batch costs close to a single pass — the cooperative-scan
// effect the service exists for.
//
// Columns: workers, shared (0/1), queries, wall_ms, qps, pages_read, and
// read_passes = pages_read / table pages (the figure of merit: ~Q without
// sharing, ~1-2 with it).

#include <chrono>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/csv_writer.h"
#include "common/rng.h"
#include "service/query_service.h"

namespace aib {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  size_t workers = 0;
  bool shared = false;
  size_t queries = 0;
  double wall_ms = 0;
  double qps = 0;
  int64_t pages_read = 0;
  double read_passes = 0;
};

RunResult RunBatch(Database* db, const std::vector<Query>& queries,
                   size_t workers, bool shared) {
  const int64_t reads_before = db->metrics().Get(kMetricPagesRead);

  QueryServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = queries.size();
  options.shared_scans = shared;
  QueryService service(db->executor(), options);

  const int64_t start = NowNs();
  std::vector<std::future<Result<StatementResult>>> futures;
  futures.reserve(queries.size());
  for (const Query& query : queries) {
    for (;;) {
      Result<std::future<Result<StatementResult>>> submitted =
          service.Submit(Statement::Select(query));
      if (submitted.ok()) {
        futures.push_back(std::move(submitted).value());
        break;
      }
      std::this_thread::yield();  // Busy: queue full, retry
    }
  }
  for (auto& future : futures) {
    Result<StatementResult> result = future.get();
    if (!result.ok()) {
      std::cerr << "query failed: " << result.status().ToString() << "\n";
      std::exit(1);
    }
  }
  const double wall_ms =
      static_cast<double>(NowNs() - start) / 1e6;

  RunResult out;
  out.workers = workers;
  out.shared = shared;
  out.queries = queries.size();
  out.wall_ms = wall_ms;
  out.qps = static_cast<double>(queries.size()) / (wall_ms / 1e3);
  out.pages_read = db->metrics().Get(kMetricPagesRead) - reads_before;
  out.read_passes = static_cast<double>(out.pages_read) /
                    static_cast<double>(db->table().PageCount());
  return out;
}

int Run(const bench::BenchArgs& args) {
  // Unindexed table: every query is a full scan. Small pool: every scan
  // is a pass of disk reads, not cache hits.
  PaperSetupOptions setup = bench::PaperSetup(args);
  setup.create_indexes = false;
  setup.db.max_tuples_per_page = 50;
  setup.db.buffer_pool_pages = 64;
  Result<std::unique_ptr<Database>> db_or = BuildPaperDatabase(setup);
  if (!db_or.ok()) {
    std::cerr << "setup failed: " << db_or.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<Database> db = std::move(db_or).value();
  const size_t pages = db->table().PageCount();

  // One fixed batch of point queries, reused for every configuration so
  // the comparisons are apples-to-apples.
  constexpr size_t kQueries = 48;
  Rng rng(args.seed);
  std::vector<Query> queries;
  queries.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back(
        Query::Point(0, static_cast<Value>(rng.UniformInt(1, 50000))));
  }

  std::vector<RunResult> results;
  for (const size_t workers : {1, 2, 4, 8}) {
    for (const bool shared : {false, true}) {
      results.push_back(RunBatch(db.get(), queries, workers, shared));
    }
  }

  auto csv = bench::OpenCsv(args);
  if (csv != nullptr) {
    CsvWriter csv_writer(*csv);
    csv_writer.WriteHeader({"workers", "shared", "queries", "wall_ms", "qps",
                            "pages_read", "read_passes"});
    for (const RunResult& r : results) {
      csv_writer.Row(r.workers, r.shared ? 1 : 0, r.queries,
                     FormatDouble(r.wall_ms, 2), FormatDouble(r.qps, 1),
                     r.pages_read, FormatDouble(r.read_passes, 2));
    }
  }

  std::cout << "Concurrent throughput — " << kQueries
            << " full-scan point queries on an unindexed column, "
            << pages << "-page table, 64-page buffer pool\n\n";
  ConsoleTable table({"workers", "shared", "wall_ms", "qps", "pages_read",
                      "read_passes"});
  for (const RunResult& r : results) {
    table.AddRow({std::to_string(r.workers), r.shared ? "yes" : "no",
                  FormatDouble(r.wall_ms, 2), FormatDouble(r.qps, 1),
                  std::to_string(r.pages_read),
                  FormatDouble(r.read_passes, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nread_passes = pages_read / table pages; ~" << kQueries
            << " without sharing, a small constant with it.\n";
  return 0;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
