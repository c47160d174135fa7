// Chaos degradation bench: query-cost overhead as the injected fault rate
// grows. Each rate gets a fresh database and the same seeded paper mix of
// point queries; the FaultInjector is armed with the rate split between
// transient and corruption faults plus a slow-page latency stream.
//
// What to look for: at rate 0 the mean cost is the adaptive baseline; as
// the rate climbs, corruption strikes inside indexing scans quarantine
// partitions and force plain-scan fallbacks, so mean cost rises through
// degraded full passes — while every query keeps returning the exact
// result. latency_cost prices the faults.latency_ticks metric through
// CostModel::LatencyCost.
//
// Columns: fault_rate, queries, failed, mean_cost, degraded, quarantined,
// transient_retries, faults, latency_cost.

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/csv_writer.h"
#include "common/rng.h"
#include "storage/fault_injector.h"
#include "workload/database.h"
#include "workload/experiment.h"

namespace aib {
namespace {

struct RateResult {
  double fault_rate = 0;
  size_t queries = 0;
  size_t failed = 0;
  double mean_cost = 0;
  int64_t degraded = 0;
  int64_t quarantined = 0;
  int64_t transient_retries = 0;
  int64_t faults = 0;
  double latency_cost = 0;
};

RateResult RunRate(const PaperSetupOptions& setup, double rate,
                   size_t num_queries, uint64_t seed) {
  RateResult out;
  out.fault_rate = rate;

  Result<std::unique_ptr<Database>> db_or = BuildPaperDatabase(setup);
  if (!db_or.ok()) {
    std::cerr << "setup failed: " << db_or.status().ToString() << "\n";
    std::exit(1);
  }
  std::unique_ptr<Database> db = std::move(db_or).value();

  if (rate > 0) {
    FaultInjectorOptions fault_options;
    fault_options.seed = seed;
    fault_options.read_fault_rate = rate;
    fault_options.write_fault_rate = rate;
    fault_options.corruption_fraction = 0.5;
    fault_options.latency_rate = rate;
    db->catalog().disk().fault_injector().Arm(fault_options);
  }

  // Paper mix: 30% covered points, 70% uncovered (indexing scans) — the
  // uncovered side is where degradation machinery engages.
  Rng rng(seed);
  double total_cost = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    const bool covered = rng.UniformInt(0, 9) < 3;
    const Value value =
        covered ? static_cast<Value>(
                      rng.UniformInt(setup.covered_lo, setup.covered_hi))
                : static_cast<Value>(
                      rng.UniformInt(setup.covered_hi + 1, setup.value_max));
    Result<StatementResult> result =
        db->ExecuteStatement(Statement::Select(Query::Point(0, value)));
    // Whole-query retry on transient/corruption, same policy as the query
    // service; a query that still fails after that counts as failed.
    for (int attempt = 0;
         !result.ok() &&
         (result.status().IsTransient() || result.status().IsCorruption()) &&
         attempt < 5;
         ++attempt) {
      result = db->ExecuteStatement(Statement::Select(Query::Point(0, value)));
    }
    if (!result.ok()) {
      ++out.failed;
      continue;
    }
    total_cost += result->stats.cost;
    ++out.queries;
  }
  if (out.queries > 0) {
    out.mean_cost = total_cost / static_cast<double>(out.queries);
  }
  out.degraded = db->metrics().Get(kMetricDegradedQueries);
  out.quarantined = db->metrics().Get(kMetricPartitionsQuarantined);
  out.transient_retries = db->metrics().Get(kMetricTransientRetries);
  out.faults = db->metrics().Get(kMetricFaultsInjected);
  const CostModel cost_model(setup.db.cost);
  out.latency_cost = cost_model.LatencyCost(
      static_cast<uint64_t>(db->metrics().Get(kMetricFaultLatencyTicks)));
  return out;
}

int Run(const bench::BenchArgs& args) {
  PaperSetupOptions setup = bench::PaperSetup(args);
  // Keep the pool well under the table size so fetches reach the
  // DiskManager (and thus the injector) instead of the page cache.
  setup.db.buffer_pool_pages = 256;
  const size_t num_queries = args.scale == "small" ? 1500u : 4000u;

  std::vector<RateResult> results;
  // The top rate sits past the degradation cliff on purpose: with ~0.01
  // corruption per page read, a full-table fallback pass over ~1000 pages
  // almost never completes, so `failed` jumps from ~0 to the bulk of the
  // uncovered queries.
  for (const double rate : {0.0, 0.001, 0.005, 0.02}) {
    results.push_back(RunRate(setup, rate, num_queries, args.seed));
  }

  auto csv = bench::OpenCsv(args);
  if (csv != nullptr) {
    CsvWriter csv_writer(*csv);
    csv_writer.WriteHeader({"fault_rate", "queries", "failed", "mean_cost",
                            "degraded", "quarantined", "transient_retries",
                            "faults", "latency_cost"});
    for (const RateResult& r : results) {
      csv_writer.Row(FormatDouble(r.fault_rate, 3), r.queries, r.failed,
                     FormatDouble(r.mean_cost, 3), r.degraded, r.quarantined,
                     r.transient_retries, r.faults,
                     FormatDouble(r.latency_cost, 2));
    }
  }

  std::cout << "Chaos degradation — mean query cost vs injected fault rate ("
            << num_queries << " point queries per rate, fresh DB each)\n\n";
  ConsoleTable table({"fault_rate", "failed", "mean_cost", "degraded",
                      "quarantined", "retries", "faults", "latency_cost"});
  for (const RateResult& r : results) {
    table.AddRow({FormatDouble(r.fault_rate, 3), std::to_string(r.failed),
                  FormatDouble(r.mean_cost, 3), std::to_string(r.degraded),
                  std::to_string(r.quarantined),
                  std::to_string(r.transient_retries),
                  std::to_string(r.faults),
                  FormatDouble(r.latency_cost, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nCosts stay near baseline at low rates (retries absorb the "
               "transients); degraded full passes raise the mean until, past "
               "the cliff, whole queries start failing outright.\n";
  return 0;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
