// Multi-table catalog: Index Buffers of partial indexes on *different
// tables* share one Index Buffer Space — "it is insignificant for the
// separation of Index Buffers whether the columns are in the same table or
// not" (§IV, Fig. 5).
//
//   $ ./multi_table
//
// Two tables (orders, sensors) with different sizes and query rates
// compete for one bounded space; the benefit model allocates it across
// table boundaries.

#include <iomanip>
#include <iostream>

#include "common/rng.h"
#include "workload/catalog.h"

using namespace aib;

namespace {

void PrintState(Catalog& catalog, Table* orders, Table* sensors,
                size_t budget, const char* tag) {
  const size_t o = catalog.GetBuffer(orders, 0)->TotalEntries();
  const size_t s = catalog.GetBuffer(sensors, 0)->TotalEntries();
  std::cout << tag << "\n"
            << "  orders.customer buffer:  " << std::setw(6) << o
            << " entries\n"
            << "  sensors.reading buffer:  " << std::setw(6) << s
            << " entries\n"
            << "  space: " << o + s << " / " << budget << "\n\n";
}

}  // namespace

int main() {
  constexpr size_t kBudget = 40000;
  CatalogOptions options;
  options.space.max_entries = kBudget;
  options.space.max_pages_per_scan = 250;
  options.buffer.partition_pages = 120;
  options.buffer.initial_interval = 15.0;
  options.max_tuples_per_page = 40;
  Catalog catalog(options);

  // Two tables with their own schemas.
  Schema orders_schema({{"customer", ColumnType::kInt32, 0},
                        {"total_cents", ColumnType::kInt32, 0},
                        {"note", ColumnType::kVarchar, 64}});
  Schema sensors_schema({{"reading", ColumnType::kInt32, 0},
                         {"blob", ColumnType::kVarchar, 64}});
  Table* orders = catalog.CreateTable("orders", std::move(orders_schema))
                      .value();
  Table* sensors = catalog.CreateTable("sensors", std::move(sensors_schema))
                       .value();

  std::cout << "loading orders (80,000 rows) and sensors (40,000 rows)...\n";
  Rng rng(21);
  for (int i = 0; i < 80000; ++i) {
    Tuple row({static_cast<Value>(rng.UniformInt(1, 8000)),
               static_cast<Value>(rng.UniformInt(100, 99999))},
              {"order-" + std::to_string(i)});
    if (!catalog.LoadTuple(orders, row).ok()) return 1;
  }
  for (int i = 0; i < 40000; ++i) {
    Tuple row({static_cast<Value>(rng.UniformInt(1, 8000))},
              {"sensor-" + std::to_string(i)});
    if (!catalog.LoadTuple(sensors, row).ok()) return 1;
  }

  // Partial indexes: key accounts / alert thresholds only.
  if (!catalog.CreatePartialIndex(orders, 0, ValueCoverage::Range(1, 800))
           .ok() ||
      !catalog.CreatePartialIndex(sensors, 0, ValueCoverage::Range(1, 800))
           .ok()) {
    return 1;
  }
  std::cout << "partial indexes cover customer/reading values [1,800]; "
               "shared Index Buffer Space = "
            << kBudget << " entries\n\n";

  // Queries of both tables interleave with the given odds.
  auto query_round = [&](int total, double orders_share) {
    for (int i = 0; i < total; ++i) {
      Table* table = rng.Bernoulli(orders_share) ? orders : sensors;
      const Value v = static_cast<Value>(rng.UniformInt(801, 8000));
      const Statement select = Statement::Select(Query::Point(0, v));
      if (!catalog.ExecuteStatement(table, select).ok()) std::exit(1);
    }
  };

  // Phase 1: the orders table is the hot one (~85% of the queries).
  query_round(120, 0.85);
  PrintState(catalog, orders, sensors, kBudget,
             "after 120 queries, 85% against orders:");

  // Phase 2: an incident — everyone is querying sensor readings.
  query_round(120, 0.15);
  PrintState(catalog, orders, sensors, kBudget,
             "after 120 more queries, 85% against sensors:");

  std::cout << "Two different tables, one space: the benefit model moved "
               "the entries to whichever table's buffer earns more skips.\n";
  return 0;
}
