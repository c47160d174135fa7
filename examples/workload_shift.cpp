// Workload shift: the online tuner and the Adaptive Index Buffer working
// together (the paper's Fig. 1 problem and its §III solution, combined).
//
//   $ ./workload_shift
//
// A single column is queried; mid-run the interesting value range shifts.
// The tuner adapts the partial index with its inherent control-loop delay
// (window + threshold), while the Index Buffer bridges the gap so the
// queries during the delay do not pay full scans.

#include <iostream>

#include "common/csv_writer.h"
#include "common/rng.h"
#include "workload/database.h"

using namespace aib;

namespace {

struct PhaseStats {
  double total_cost = 0;
  size_t queries = 0;
  size_t tuner_adaptations = 0;
};

}  // namespace

int main() {
  auto run = [&](bool with_buffer) {
    DatabaseOptions options;
    options.enable_index_buffer = with_buffer;
    options.space.max_entries = 100000;
    options.space.max_pages_per_scan = 1000;
    options.buffer.partition_pages = 100;
    options.max_tuples_per_page = 40;

    Database db(Schema::PaperSchema(1, 64), options);
    Rng data_rng(7);
    for (int i = 0; i < 60000; ++i) {
      Tuple tuple({static_cast<Value>(data_rng.UniformInt(1, 60))},
                  {"rec-" + std::to_string(i)});
      if (!db.LoadTuple(tuple).ok()) std::exit(1);
    }
    // Initial partial index: the "old" hot values 1..20.
    if (!db.CreatePartialIndex(0, ValueCoverage::Range(1, 20)).ok()) {
      std::exit(1);
    }
    // Online tuner: window 20, threshold 6, capacity 20 values — the
    // Fig. 1 mechanism.
    IndexTunerOptions tuner;
    tuner.window_size = 20;
    tuner.index_threshold = 6;
    tuner.max_indexed_values = 20;
    if (!db.AttachTuner(0, tuner).ok()) std::exit(1);

    // Workload: 150 queries on values 1..20, then 150 on 41..60.
    Rng rng(42);
    PhaseStats before, during;
    for (int q = 0; q < 300; ++q) {
      const bool shifted = q >= 150;
      const Value v = static_cast<Value>(
          shifted ? rng.UniformInt(41, 60) : rng.UniformInt(1, 20));
      Result<StatementResult> r =
          db.ExecuteStatement(Statement::Select(Query::Point(0, v)));
      if (!r.ok()) std::exit(1);
      PhaseStats& phase = shifted ? during : before;
      phase.total_cost += r->stats.cost;
      ++phase.queries;
    }
    return std::pair<PhaseStats, PhaseStats>(before, during);
  };

  std::cout << "Workload shift: 300 queries; the hot value range moves from "
               "[1,20] to [41,60] at query 150.\n"
               "The tuner adapts the partial index either way; the question "
               "is what the queries cost while it catches up.\n\n";

  auto [before_plain, during_plain] = run(/*with_buffer=*/false);
  auto [before_buf, during_buf] = run(/*with_buffer=*/true);

  ConsoleTable table({"configuration", "mean cost before shift",
                      "mean cost after shift"});
  table.AddRow({"tuner only (Fig. 1)",
                FormatDouble(before_plain.total_cost / before_plain.queries, 1),
                FormatDouble(during_plain.total_cost / during_plain.queries, 1)});
  table.AddRow({"tuner + Index Buffer",
                FormatDouble(before_buf.total_cost / before_buf.queries, 1),
                FormatDouble(during_buf.total_cost / during_buf.queries, 1)});
  table.Print(std::cout);

  const double saved = 1.0 - (during_buf.total_cost / during_plain.total_cost);
  std::cout << "\nThe Index Buffer absorbed "
            << FormatDouble(saved * 100, 0)
            << "% of the post-shift cost that the control-loop delay "
               "otherwise leaves on the table.\n";
  return 0;
}
