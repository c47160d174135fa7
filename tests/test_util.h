#ifndef AIB_TESTS_TEST_UTIL_H_
#define AIB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "workload/database.h"
#include "workload/experiment.h"

namespace aib::testing {

/// A tuple for the 3-int + payload paper schema.
inline Tuple MakeTuple(Value a, Value b, Value c,
                       const std::string& payload = "p") {
  return Tuple({a, b, c}, {payload});
}

/// A tuple for a 1-int + payload schema.
inline Tuple MakeTuple1(Value a, const std::string& payload = "p") {
  return Tuple({a}, {payload});
}

/// Small paper-style database for unit/integration tests: `num_tuples`
/// tuples, values uniform in [1, value_max], partial indexes covering
/// [1, covered_hi] on every int column.
inline std::unique_ptr<Database> MakeSmallPaperDb(
    size_t num_tuples = 2000, Value value_max = 1000, Value covered_hi = 100,
    DatabaseOptions db_options = {}, uint64_t seed = 99) {
  PaperSetupOptions options;
  options.num_tuples = num_tuples;
  options.value_min = 1;
  options.value_max = value_max;
  options.covered_lo = 1;
  options.covered_hi = covered_hi;
  options.payload_min = 1;
  options.payload_max = 64;
  options.seed = seed;
  options.db = db_options;
  auto result = BuildPaperDatabase(options);
  if (!result.ok()) return nullptr;
  return std::move(result).value();
}

/// Ground truth for a point query: full scan of the table.
inline std::vector<Rid> GroundTruth(const Database& db, ColumnId column,
                                    Value lo, Value hi) {
  std::vector<Rid> rids;
  (void)db.table().heap().ForEachTuple(
      [&](const Rid& rid, const Tuple& tuple) {
        const Value v = tuple.IntValue(db.table().schema(), column);
        if (v >= lo && v <= hi) rids.push_back(rid);
      });
  return rids;
}

/// The rid an Insert/Update/Delete statement reports (the new rid for
/// inserts and updates, the removed one for deletes), or its error.
inline Result<Rid> AffectedRid(const Result<StatementResult>& result) {
  if (!result.ok()) return result.status();
  return result->rids.front();
}

/// Sorted copy, for order-insensitive rid set comparison.
inline std::vector<Rid> Sorted(std::vector<Rid> rids) {
  std::sort(rids.begin(), rids.end());
  return rids;
}

}  // namespace aib::testing

#endif  // AIB_TESTS_TEST_UTIL_H_
