// Figure 6 (Experiment 1): a single Index Buffer with unlimited Index
// Buffer Space.
//
// The paper's setting: the common data setup (§V), 200 point queries on
// unindexed values of column A, unlimited space, I_MAX = 5,000, P = 10,000.
// Per query the paper plots the runtime, the total number of Index Buffer
// entries, and the number of pages skipped; reference lines show the plain
// table-scan and the index-scan runtime levels.
//
// Expected shape: the first queries pay roughly a table scan (plus a small
// indexing overhead); within ~20 queries the whole table is fully indexed,
// every page is skipped, and the runtime settles at the index-scan level.

#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/ascii_chart.h"
#include "common/csv_writer.h"
#include "common/histogram.h"

namespace aib {
namespace {

/// The plot's reference lines: a plain table scan and an index scan.
struct ReferenceLevels {
  QueryStats scan;
  QueryStats index;
};

/// Takes the reference levels on a twin without an Index Buffer Space, so
/// the measured database sees only the workload: on the twin an uncovered
/// point query is a plain table scan and a covered one a pure index probe.
Result<ReferenceLevels> MeasureReferenceLevels(PaperSetupOptions setup) {
  setup.db.enable_index_buffer = false;
  AIB_ASSIGN_OR_RETURN(std::unique_ptr<Database> twin,
                       BuildPaperDatabase(setup));
  AIB_ASSIGN_OR_RETURN(StatementResult scan,
                       twin->ExecuteStatement(
                           Statement::Select(Query::Point(0, 25000))));
  AIB_ASSIGN_OR_RETURN(StatementResult index,
                       twin->ExecuteStatement(
                           Statement::Select(Query::Point(0, 2500))));
  return ReferenceLevels{scan.stats, index.stats};
}

int Run(const bench::BenchArgs& args) {
  PaperSetupOptions setup = bench::PaperSetup(args);
  setup.db.space.max_entries = 0;  // unlimited
  // The paper's I_MAX = 5,000 and P = 10,000 pages, scaled with the table
  // so the convergence shape (fully indexed after ~20 queries) is
  // preserved at every scale.
  const size_t imax = std::max<size_t>(1, args.num_tuples / 100);
  setup.db.space.max_pages_per_scan = imax;
  setup.db.buffer.partition_pages = std::max<size_t>(1, args.num_tuples / 50);
  Result<std::unique_ptr<Database>> db_or = BuildPaperDatabase(setup);
  if (!db_or.ok()) {
    std::cerr << "setup failed: " << db_or.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<Database> db = std::move(db_or).value();

  Result<ReferenceLevels> refs = MeasureReferenceLevels(setup);
  if (!refs.ok()) {
    std::cerr << "baseline failed\n";
    return 1;
  }

  PhaseSpec phase;
  phase.num_queries = 200;
  phase.mix = {bench::PaperMix(0)};
  WorkloadGenerator gen({phase}, args.seed);
  Result<std::vector<SeriesPoint>> series_or = RunWorkload(db.get(), &gen);
  if (!series_or.ok()) {
    std::cerr << "workload failed: " << series_or.status().ToString() << "\n";
    return 1;
  }
  const std::vector<SeriesPoint>& series = series_or.value();

  auto csv = bench::OpenCsv(args);
  CsvWriter csv_writer(csv != nullptr ? *csv : std::cout);
  if (csv != nullptr) {
    csv_writer.WriteHeader({"query", "cost_units", "wall_us",
                            "buffer_entries", "pages_skipped",
                            "pages_scanned"});
    for (const SeriesPoint& point : series) {
      csv_writer.Row(point.query_index, FormatDouble(point.stats.cost, 3),
                     point.stats.wall_ns / 1000, point.buffer_entries[0],
                     point.stats.pages_skipped, point.stats.pages_scanned);
    }
  }

  ConsoleTable table({"query", "cost", "wall_us", "entries", "skipped",
                      "scanned"});
  for (const SeriesPoint& point : series) {
    const size_t q = point.query_index;
    if (q < 5 || q == 9 || q == 14 || q == 19 || q == 29 || q == 49 ||
        q == 99 || q == 199) {
      table.AddRow({std::to_string(q), FormatDouble(point.stats.cost, 1),
                    std::to_string(point.stats.wall_ns / 1000),
                    std::to_string(point.buffer_entries[0]),
                    std::to_string(point.stats.pages_skipped),
                    std::to_string(point.stats.pages_scanned)});
    }
  }

  std::cout << "Figure 6 — Single Index Buffer, unlimited space (I_MAX="
            << imax << ", P=" << args.num_tuples / 50
            << "), 200 queries on column A\n\n"
            << "reference: full table scan cost = "
            << FormatDouble(refs->scan.cost, 2)
            << " (wall " << refs->scan.wall_ns / 1000 << " us), "
            << "index scan cost = "
            << FormatDouble(refs->index.cost, 2) << " (wall "
            << refs->index.wall_ns / 1000 << " us)\n\n";
  table.Print(std::cout);

  std::vector<double> costs;
  costs.reserve(series.size());
  for (const SeriesPoint& point : series) costs.push_back(point.stats.cost);
  AsciiChart::Options chart;
  chart.log_y = true;
  std::cout << "\ncost per query (log scale, x = query 0.."
            << series.size() - 1 << "):\n"
            << AsciiChart::Render(costs, chart);

  Histogram cost_hist;
  Histogram wall_us_hist;
  for (const SeriesPoint& point : series) {
    cost_hist.Add(point.stats.cost);
    wall_us_hist.Add(static_cast<double>(point.stats.wall_ns) / 1000.0);
  }
  std::cout << "\ncost distribution:    " << cost_hist.Summary()
            << "\nwall-time (us) dist:  " << wall_us_hist.Summary() << "\n";

  const SeriesPoint& last = series.back();
  std::cout << "\nShape check: cost should drop below the table-scan level "
               "within a few queries and settle near the index-scan level; "
               "with unlimited space all pages end up skipped.\n"
            << "converged: cost=" << FormatDouble(last.stats.cost, 2)
            << ", skipped=" << last.stats.pages_skipped << "/"
            << db->table().PageCount()
            << ", speedup vs table scan = "
            << FormatDouble(refs->scan.cost / last.stats.cost, 1)
            << "x\n";
  return 0;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
