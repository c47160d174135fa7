#include <gtest/gtest.h>

#include <memory>

#include "../test_util.h"
#include "exec/executor.h"
#include "exec/operators.h"

namespace aib {
namespace {

using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::Sorted;

/// Plan-shape tests: the Planner's access-path selection rendered as
/// operator trees. MakeSmallPaperDb covers [1,100] on all three columns.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallPaperDb();
    ASSERT_NE(db_, nullptr);
  }

  std::unique_ptr<PhysicalPlan> Plan(const Query& query) {
    return db_->executor()->PlanStatement(Statement::Select(query));
  }

  std::unique_ptr<Database> db_;
};

/// Name of the i-th node along the leftmost spine.
std::string SpineName(const PhysicalPlan& plan, size_t depth) {
  const PhysicalOperator* node = &plan.root();
  for (size_t i = 0; i < depth; ++i) {
    auto children = node->Children();
    if (children.empty()) return "";
    node = children.front();
  }
  return node->Name();
}

TEST_F(PlannerTest, CoveredPointPlansAsProbe) {
  std::unique_ptr<PhysicalPlan> plan = Plan(Query::Point(0, 50));
  EXPECT_EQ(SpineName(*plan, 0), "Materialize");
  EXPECT_EQ(SpineName(*plan, 1), "PartialIndexProbe");
  EXPECT_EQ(SpineName(*plan, 2), "");
  EXPECT_NE(plan->driver_index(), nullptr);
  EXPECT_TRUE(plan->driver_hit());
}

TEST_F(PlannerTest, ConjunctionAddsResidualFilter) {
  std::unique_ptr<PhysicalPlan> plan =
      Plan(Query::Point(0, 50).And(1, 200, 300));
  EXPECT_EQ(SpineName(*plan, 0), "Materialize");
  EXPECT_EQ(SpineName(*plan, 1), "Filter");
  EXPECT_EQ(SpineName(*plan, 2), "PartialIndexProbe");
}

TEST_F(PlannerTest, CoveredResidualBecomesDriver) {
  // Primary col0 ∈ [200,300] is uncovered, but the residual col1 = 50 is
  // fully covered: the planner drives from the covered conjunct and turns
  // the primary into the residual Filter — index-probe + filter instead of
  // an adaptive scan.
  std::unique_ptr<PhysicalPlan> plan =
      Plan(Query::Range(0, 200, 300).And(1, 50, 50));
  EXPECT_EQ(SpineName(*plan, 0), "Materialize");
  EXPECT_EQ(SpineName(*plan, 1), "Filter");
  EXPECT_EQ(SpineName(*plan, 2), "PartialIndexProbe");
  EXPECT_TRUE(plan->driver_hit());
  EXPECT_EQ(plan->driver_index(), db_->GetIndex(1));
}

TEST_F(PlannerTest, UncoveredPointPlansAsIndexingScan) {
  std::unique_ptr<PhysicalPlan> plan = Plan(Query::Point(0, 500));
  EXPECT_EQ(SpineName(*plan, 0), "Materialize");
  EXPECT_EQ(SpineName(*plan, 1), "IndexingTableScan");
  EXPECT_EQ(SpineName(*plan, 2), "IndexBufferProbe");
  ASSERT_EQ(plan->root().Children().size(), 1u);
  EXPECT_EQ(plan->root().Children()[0]->Children().size(), 1u)
      << "disjoint predicate must not get a hybrid tail";
  EXPECT_FALSE(plan->driver_hit());
}

TEST_F(PlannerTest, HybridRangeGetsCoveredOnSkippedTail) {
  std::unique_ptr<PhysicalPlan> plan = Plan(Query::Range(0, 50, 150));
  EXPECT_EQ(SpineName(*plan, 1), "IndexingTableScan");
  const PhysicalOperator* scan = plan->root().Children()[0];
  ASSERT_EQ(scan->Children().size(), 2u);
  EXPECT_EQ(scan->Children()[0]->Name(), "IndexBufferProbe");
  EXPECT_EQ(scan->Children()[1]->Name(), "CoveredOnSkippedFetch");
}

TEST_F(PlannerTest, ConjunctiveMissFiltersBothLegs) {
  std::unique_ptr<PhysicalPlan> plan =
      Plan(Query::Range(0, 50, 150).And(1, 1, 500));
  const PhysicalOperator* scan = plan->root().Children()[0];
  ASSERT_EQ(scan->Children().size(), 2u);
  // Probe and tail rids need fetching anyway, so residuals sit in Filters
  // above them; the table scan evaluates residuals in place.
  EXPECT_EQ(scan->Children()[0]->Name(), "Filter");
  EXPECT_EQ(scan->Children()[0]->Children()[0]->Name(), "IndexBufferProbe");
  EXPECT_EQ(scan->Children()[1]->Name(), "Filter");
  EXPECT_EQ(scan->Children()[1]->Children()[0]->Name(),
            "CoveredOnSkippedFetch");
}

TEST_F(PlannerTest, NoSpacePlansFullScanButKeepsDriver) {
  DatabaseOptions options;
  options.enable_index_buffer = false;
  std::unique_ptr<Database> db =
      MakeSmallPaperDb(2000, 1000, 100, options);
  ASSERT_NE(db, nullptr);
  std::unique_ptr<PhysicalPlan> plan =
      db->executor()->PlanStatement(Statement::Select(Query::Point(0, 500)));
  EXPECT_EQ(SpineName(*plan, 0), "FullTableScan");
  // The miss still belongs to col0's index for Table II accounting.
  EXPECT_EQ(plan->driver_index(), db->GetIndex(0));
  EXPECT_FALSE(plan->driver_hit());

  Result<StatementResult> result =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 500)));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.used_index_buffer);
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, 0, 500, 500)));
}

TEST_F(PlannerTest, ConjunctiveQueryCorrectOnEveryPath) {
  // One conjunctive query per plan shape, each against a two-predicate
  // ground truth.
  const Schema& schema = db_->table().schema();
  auto truth = [&](const Query& query) {
    std::vector<Rid> rids;
    (void)db_->table().heap().ForEachTuple(
        [&](const Rid& rid, const Tuple& tuple) {
          for (const ColumnPredicate& p : query.AllPredicates()) {
            if (!p.Matches(tuple.IntValue(schema, p.column))) return;
          }
          rids.push_back(rid);
        });
    return rids;
  };
  for (const Query& query :
       {Query::Point(0, 50).And(1, 200, 800),      // probe + filter
        Query::Range(0, 200, 300).And(1, 50, 50),  // covered residual drives
        Query::Point(0, 500).And(2, 1, 600),       // miss + residual
        Query::Range(0, 50, 150).And(1, 1, 900)}) {  // hybrid + residual
    Result<StatementResult> result =
        db_->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Sorted(result->rids), Sorted(truth(query)))
        << PredicatesToString(query.AllPredicates());
  }
}

}  // namespace
}  // namespace aib
