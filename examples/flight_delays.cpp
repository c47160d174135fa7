// The paper's motivating scenario (§II, Fig. 2/4): a flight on-time
// database whose airport column carries a partial index on U.S. airports.
// When the workload suddenly asks for German airports, those queries
// degrade to table scans — until the Index Buffer completes the indexing
// of pages and lets scans skip them.
//
//   $ ./flight_delays
//
// Airports are mapped to integer codes: U.S. airports get codes 1..1000
// (covered by the partial index), international ones 1001..4000.

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/database.h"

using namespace aib;

namespace {

// A small airport directory; code ranges encode the partial-index design.
const std::map<std::string, Value> kAirports = {
    {"ORD", 10},   {"JFK", 20},   {"LAX", 30},   {"ATL", 40},
    {"DFW", 50},   {"SFO", 60},   // U.S.: covered by the partial index
    {"FRA", 1500}, {"MUC", 1600}, {"TXL", 1700}, {"HEL", 2200},
    {"LHR", 2800}, {"NRT", 3500},  // international: unindexed
};

}  // namespace

int main() {
  DatabaseOptions options;
  options.space.max_entries = 200000;
  options.space.max_pages_per_scan = 1000;
  options.buffer.partition_pages = 200;

  // Schema: airport code, delay minutes, payload (flight record blob).
  Schema schema({{"airport", ColumnType::kInt32, 0},
                 {"delay", ColumnType::kInt32, 0},
                 {"record", ColumnType::kVarchar, 128}});
  Database db(std::move(schema), options, "flights");

  // Load 150,000 flights: 70% from U.S. airports (codes 1..1000), 30%
  // international (codes 1001..4000). Each named airport is one code, so a
  // single report touches a few dozen flights out of 150,000.
  std::cout << "loading 150,000 flights...\n";
  Rng rng(2012);
  for (int i = 0; i < 150000; ++i) {
    const Value code = static_cast<Value>(rng.Bernoulli(0.7)
                                              ? rng.UniformInt(1, 1000)
                                              : rng.UniformInt(1001, 4000));
    const Value delay = static_cast<Value>(rng.UniformInt(-10, 180));
    Tuple flight({code, delay}, {"flight-" + std::to_string(i)});
    if (!db.LoadTuple(flight).ok()) return 1;
  }

  // Partial index on the airport column covering U.S. codes only — "since
  // the provider mainly sells reports to U.S. airports".
  if (!db.CreatePartialIndex(0, ValueCoverage::Range(1, 1000)).ok()) {
    return 1;
  }
  std::cout << "partial index covers U.S. airport codes [1,1000]; table has "
            << db.table().PageCount() << " pages\n\n";

  // Business as usual: reports for Chicago O'Hare hit the index.
  Result<StatementResult> ord = db.ExecuteStatement(
      Statement::Select(Query::Point(0, kAirports.at("ORD"))));
  if (!ord.ok()) return 1;
  std::cout << "report ORD: " << ord->rids.size() << " flights, cost "
            << ord->stats.cost << " — partial index hit\n\n";

  // "If the provider suddenly creates reports for German airports..."
  std::cout << "the provider starts selling reports for German airports:\n";
  const std::vector<std::string> report_run = {"FRA", "MUC", "TXL", "FRA",
                                               "MUC", "TXL", "FRA", "MUC"};
  for (const std::string& airport : report_run) {
    Result<StatementResult> r = db.ExecuteStatement(
        Statement::Select(Query::Point(0, kAirports.at(airport))));
    if (!r.ok()) return 1;
    std::cout << "  report " << airport << ": " << r->rids.size()
              << " flights, cost " << r->stats.cost << " ("
              << r->stats.pages_skipped << " pages skipped, "
              << r->stats.entries_added << " tuples newly buffered)\n";
  }

  IndexBuffer* buffer = db.GetBuffer(0);
  std::cout << "\nthe Index Buffer now holds " << buffer->TotalEntries()
            << " entries covering the unindexed (international) tuples;\n"
            << "German reports run at near-index cost without the partial "
               "index having been adapted at all.\n";

  // A second partial index on the delay column (the heavy-delay range the
  // provider reports on) works against the same Index Buffer Space; a
  // narrow uncovered range query exercises the hybrid execution path.
  if (!db.CreatePartialIndex(1, ValueCoverage::Range(120, 180)).ok()) {
    return 1;
  }
  Result<StatementResult> edge1 =
      db.ExecuteStatement(Statement::Select(Query::Range(1, 115, 125)));
  Result<StatementResult> edge2 =
      db.ExecuteStatement(Statement::Select(Query::Range(1, 115, 125)));
  if (!edge1.ok() || !edge2.ok()) return 1;
  std::cout << "\nrange report crossing the delay index boundary "
               "(115..125): " << edge1->rids.size()
            << " flights; first run cost " << edge1->stats.cost
            << ", repeat cost " << edge2->stats.cost
            << " (hybrid: index + buffer + residual scan).\n";
  return 0;
}
