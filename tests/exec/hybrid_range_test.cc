#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "../test_util.h"
#include "exec/executor.h"

namespace aib {
namespace {

using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::Sorted;

/// Hybrid-path edge cases around the coverage boundary. MakeSmallPaperDb
/// covers [1,100]; values run to 1000.
class HybridRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallPaperDb();
    ASSERT_NE(db_, nullptr);
  }

  /// Executes and checks rids against ground truth, without duplicates.
  void ExpectCorrect(const Query& query) {
    Result<StatementResult> result =
        db_->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Rid> got = Sorted(result->rids);
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "duplicate rids for [" << query.lo << "," << query.hi << "]";
    EXPECT_EQ(got, Sorted(GroundTruth(*db_, query.column, query.lo, query.hi)))
        << "[" << query.lo << "," << query.hi << "]";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(HybridRangeTest, RangeAbuttingUpperCoverageBoundary) {
  // [100,101]: the smallest range straddling the boundary — one covered
  // value, one uncovered. Repeat as the buffer warms: the covered tail and
  // the scan leg must keep partitioning the result identically.
  for (int round = 0; round < 4; ++round) {
    ExpectCorrect(Query::Range(0, 100, 101));
  }
}

TEST_F(HybridRangeTest, RangeEndingExactlyAtCoverageBoundary) {
  // [50,100] ends exactly at the boundary: fully covered, a pure hit —
  // never the hybrid path.
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Range(0, 50, 100)));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.used_partial_index);
  EXPECT_FALSE(result->stats.used_index_buffer);
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db_, 0, 50, 100)));
}

TEST_F(HybridRangeTest, RangeStartingJustAboveCoverage) {
  // [101,150] abuts the boundary from above: empty coverage intersection,
  // so the plan must be a plain indexing scan with no hybrid tail.
  std::unique_ptr<PhysicalPlan> plan =
      db_->executor()->PlanStatement(
          Statement::Select(Query::Range(0, 101, 150)));
  const PhysicalOperator* scan = plan->root().Children()[0];
  EXPECT_EQ(scan->Name(), "IndexingTableScan");
  EXPECT_EQ(scan->Children().size(), 1u)
      << "empty coverage intersection must not plan a tail";
  ExpectCorrect(Query::Range(0, 101, 150));
}

TEST_F(HybridRangeTest, RangeContainingWholeCoverage) {
  // [1,200] contains the entire covered region [1,100].
  for (int round = 0; round < 3; ++round) {
    ExpectCorrect(Query::Range(0, 1, 200));
  }
}

TEST_F(HybridRangeTest, BoundaryPointQueries) {
  ExpectCorrect(Query::Point(0, 100));  // last covered value: a hit
  ExpectCorrect(Query::Point(0, 101));  // first uncovered value: a miss
  Result<StatementResult> hit =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 100)));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->stats.used_partial_index);
  Result<StatementResult> miss =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 101)));
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->stats.used_index_buffer);
}

TEST_F(HybridRangeTest, HybridAfterFullWarmup) {
  // Warm until every uncovered page is indexed, then run hybrid ranges:
  // the scan leg degenerates to all-skipped and the whole result comes
  // from buffer + covered tail.
  for (Value v = 101; v < 131; ++v) {
    ASSERT_TRUE(
        db_->ExecuteStatement(Statement::Select(Query::Point(0, v))).ok());
  }
  Result<StatementResult> probe =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 500)));
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->stats.pages_scanned, 0u) << "warmup incomplete";
  for (int round = 0; round < 3; ++round) {
    ExpectCorrect(Query::Range(0, 50, 150));
    ExpectCorrect(Query::Range(0, 100, 101));
    ExpectCorrect(Query::Range(0, 1, 1000));
  }
}

TEST_F(HybridRangeTest, ConjunctiveHybridCorrect) {
  // Hybrid driver with a residual on another column, against a
  // two-predicate ground truth.
  const Schema& schema = db_->table().schema();
  std::vector<Rid> truth;
  (void)db_->table().heap().ForEachTuple(
      [&](const Rid& rid, const Tuple& tuple) {
        const Value a = tuple.IntValue(schema, 0);
        const Value b = tuple.IntValue(schema, 1);
        if (a >= 50 && a <= 150 && b >= 1 && b <= 500) truth.push_back(rid);
      });
  for (int round = 0; round < 3; ++round) {
    Result<StatementResult> result = db_->ExecuteStatement(
        Statement::Select(Query::Range(0, 50, 150).And(1, 1, 500)));
    ASSERT_TRUE(result.ok());
    std::vector<Rid> got = Sorted(result->rids);
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
    EXPECT_EQ(got, Sorted(truth)) << "round " << round;
  }
}

}  // namespace
}  // namespace aib
