// Buffer competition: multiple Index Buffers sharing a bounded Index
// Buffer Space (the paper's §IV management machinery, observable).
//
//   $ ./buffer_competition
//
// Three indexed columns with very different query frequencies compete for
// a space that fits only a fraction of the table. The benefit model
// (LRU-K access history × pages covered per partition) decides who keeps
// its entries. The example prints the allocation as it evolves, then
// flips the workload and shows the space reallocating.

#include <iomanip>
#include <iostream>

#include "common/rng.h"
#include "workload/database.h"

using namespace aib;

namespace {

void PrintAllocation(Database& db, size_t budget, const char* tag) {
  const size_t a = db.GetBuffer(0)->TotalEntries();
  const size_t b = db.GetBuffer(1)->TotalEntries();
  const size_t c = db.GetBuffer(2)->TotalEntries();
  auto bar = [&](size_t entries) {
    const int width = static_cast<int>(40.0 * entries / budget);
    return std::string(static_cast<size_t>(width), '#');
  };
  std::cout << tag << "\n"
            << "  A " << std::setw(7) << a << " |" << bar(a) << "\n"
            << "  B " << std::setw(7) << b << " |" << bar(b) << "\n"
            << "  C " << std::setw(7) << c << " |" << bar(c) << "\n"
            << "  total " << a + b + c << " / " << budget << "\n\n";
}

}  // namespace

int main() {
  constexpr size_t kBudget = 30000;
  DatabaseOptions options;
  options.space.max_entries = kBudget;
  options.space.max_pages_per_scan = 300;
  options.buffer.partition_pages = 100;
  options.buffer.initial_interval = 20.0;
  options.max_tuples_per_page = 40;

  Database db(Schema::PaperSchema(3, 64), options);
  Rng data_rng(3);
  for (int i = 0; i < 60000; ++i) {
    Tuple tuple({static_cast<Value>(data_rng.UniformInt(1, 10000)),
                 static_cast<Value>(data_rng.UniformInt(1, 10000)),
                 static_cast<Value>(data_rng.UniformInt(1, 10000))},
                {"r" + std::to_string(i)});
    if (!db.LoadTuple(tuple).ok()) return 1;
  }
  for (ColumnId column = 0; column < 3; ++column) {
    if (!db.CreatePartialIndex(column, ValueCoverage::Range(1, 1000)).ok()) {
      return 1;
    }
  }
  std::cout << "60,000 tuples, " << db.table().PageCount()
            << " pages; partial indexes cover values [1,1000]; Index "
               "Buffer Space = "
            << kBudget << " entries (a fraction of the table).\n\n";

  Rng rng(11);
  auto run_queries = [&](int count, double weight_a, double weight_b,
                         double weight_c) {
    for (int i = 0; i < count; ++i) {
      const double draw =
          rng.UniformDouble() * (weight_a + weight_b + weight_c);
      const ColumnId column = draw < weight_a ? 0
                              : draw < weight_a + weight_b ? 1
                                                           : 2;
      const Value v = static_cast<Value>(rng.UniformInt(1001, 10000));
      const Statement select = Statement::Select(Query::Point(column, v));
      if (!db.ExecuteStatement(select).ok()) std::exit(1);
    }
  };

  run_queries(30, 6, 3, 1);
  PrintAllocation(db, kBudget, "after 30 queries (mix A:B:C = 6:3:1):");
  run_queries(70, 6, 3, 1);
  PrintAllocation(db, kBudget, "after 100 queries (same mix, settled):");

  std::cout << "--- workload flips to mix A:B:C = 1:3:6 ---\n\n";
  run_queries(30, 1, 3, 6);
  PrintAllocation(db, kBudget, "30 queries after the flip:");
  run_queries(70, 1, 3, 6);
  PrintAllocation(db, kBudget, "100 queries after the flip:");

  std::cout << "The space follows the workload: buffers of hot columns "
               "displace partitions of cold ones, never exceeding the "
               "budget.\n";
  return 0;
}
