// Quickstart: create a table, load data, add a partial index, and watch
// the Adaptive Index Buffer turn repeated partial-index misses from full
// table scans into near-index-scan lookups.
//
//   $ ./quickstart
//
// Walks through the library's public API surface: Database, partial
// indexes with ValueCoverage, Query execution, and the per-query
// statistics the engine reports.

#include <iostream>

#include "workload/database.h"

using namespace aib;

int main() {
  // 1. A database with the Index Buffer enabled (the default). The space
  //    is bounded to 100,000 entries; each scan may index up to 2,000
  //    pages (I_MAX); partitions span 500 pages (P).
  DatabaseOptions options;
  options.space.max_entries = 100000;
  options.space.max_pages_per_scan = 2000;
  options.buffer.partition_pages = 500;

  // Schema: one indexed INTEGER column "A" plus a payload column.
  Database db(Schema::PaperSchema(/*int_columns=*/1), options);

  // 2. Load 100,000 tuples with values 1..10,000.
  std::cout << "loading 100,000 tuples...\n";
  for (int i = 0; i < 100000; ++i) {
    Tuple tuple({/*A=*/i % 10000 + 1}, {"payload-" + std::to_string(i)});
    if (Result<Rid> rid = db.LoadTuple(tuple); !rid.ok()) {
      std::cerr << "load failed: " << rid.status().ToString() << "\n";
      return 1;
    }
  }

  // 3. A partial index on column A covering the "interesting" values
  //    1..1,000 (10% of the domain). Values above 1,000 are unindexed.
  if (Status s = db.CreatePartialIndex(0, ValueCoverage::Range(1, 1000));
      !s.ok()) {
    std::cerr << "index failed: " << s.ToString() << "\n";
    return 1;
  }
  std::cout << "partial index on A covers "
            << db.GetIndex(0)->coverage().ToString() << " ("
            << db.GetIndex(0)->EntryCount() << " entries)\n\n";

  // 4. A covered query uses the partial index: no pages scanned.
  Result<StatementResult> hit =
      db.ExecuteStatement(Statement::Select(Query::Point(0, 500)));
  if (!hit.ok()) return 1;
  std::cout << "covered query (A=500):    " << hit->rids.size()
            << " rows, cost " << hit->stats.cost << " (partial index hit)\n";

  // 5. Uncovered queries miss the index. The first one pays a table scan
  //    — but the Index Buffer indexes pages along the way...
  Result<StatementResult> miss1 =
      db.ExecuteStatement(Statement::Select(Query::Point(0, 5000)));
  if (!miss1.ok()) return 1;
  std::cout << "uncovered query #1 (A=5000): " << miss1->rids.size()
            << " rows, cost " << miss1->stats.cost << " ("
            << miss1->stats.pages_scanned << " pages scanned, "
            << miss1->stats.entries_added << " entries buffered)\n";

  // 6. ...so subsequent misses skip the fully indexed pages.
  for (Value v : {5001, 5002, 5003}) {
    Result<StatementResult> miss =
        db.ExecuteStatement(Statement::Select(Query::Point(0, v)));
    if (!miss.ok()) return 1;
    std::cout << "uncovered query (A=" << v << "):  " << miss->rids.size()
              << " rows, cost " << miss->stats.cost << " ("
              << miss->stats.pages_skipped << " pages skipped, "
              << miss->stats.pages_scanned << " scanned)\n";
  }

  // 7. EXPLAIN shows the physical plan the planner chose, with
  //    per-operator statistics after execution.
  std::unique_ptr<PhysicalPlan> plan =
      db.executor()->PlanStatement(Statement::Select(Query::Point(0, 5004)));
  if (Result<StatementResult> r = db.executor()->ExecutePlan(plan.get());
      !r.ok()) {
    return 1;
  }
  std::cout << "\nexplain (A=5004):\n" << ExplainPlan(*plan);

  // 8. The engine keeps everything consistent under DML, too.
  Result<StatementResult> inserted =
      db.ExecuteStatement(Statement::Insert(Tuple({5001}, {"fresh tuple"})));
  if (!inserted.ok()) return 1;
  Result<StatementResult> after =
      db.ExecuteStatement(Statement::Select(Query::Point(0, 5001)));
  if (!after.ok()) return 1;
  std::cout << "\nafter INSERT of A=5001: query now returns "
            << after->rids.size() << " rows\n";

  IndexBuffer* buffer = db.GetBuffer(0);
  std::cout << "\nindex buffer: " << buffer->TotalEntries() << " entries in "
            << buffer->PartitionCount() << " partitions; space used "
            << db.space()->TotalEntries() << "/"
            << options.space.max_entries << "\n";
  return 0;
}
