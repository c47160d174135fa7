#include <gtest/gtest.h>

#include <memory>

#include "exec/executor.h"
#include "workload/database.h"

namespace aib {
namespace {

/// Golden ExplainPlan output per plan shape, on a hand-built deterministic
/// table so every counter in the rendering is exact: 24 tuples, 4 per
/// page (6 pages), col0 = 1..24 ascending, col1 = 100 + col0, partial
/// index on col0 covering [1,10]. Page p holds col0 values 4p+1..4p+4,
/// so pages 0-1 are fully covered (C[p] = 0 from the start), page 2 is
/// half covered, pages 3-5 uncovered.
class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.max_tuples_per_page = 4;
    db_ = std::make_unique<Database>(Schema::PaperSchema(2, 8), options);
    for (Value v = 1; v <= 24; ++v) {
      ASSERT_TRUE(db_->LoadTuple(Tuple({v, 100 + v}, {"p"})).ok());
    }
    ASSERT_TRUE(db_->CreatePartialIndex(0, ValueCoverage::Range(1, 10)).ok());
    ASSERT_EQ(db_->table().PageCount(), 6u);
  }

  /// Plans, executes, and renders `query`.
  std::string Explain(const Query& query) {
    Executor* executor = db_->executor();
    std::unique_ptr<PhysicalPlan> plan =
        executor->PlanStatement(Statement::Select(query));
    Result<StatementResult> result = executor->ExecutePlan(plan.get());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ExplainPlan(*plan);
  }

  /// Plans, executes, and renders a DML statement.
  std::string ExplainStatement(const Statement& statement) {
    Executor* executor = db_->executor();
    std::unique_ptr<PhysicalPlan> plan = executor->PlanStatement(statement);
    EXPECT_NE(plan, nullptr);
    if (plan == nullptr) return "";
    Result<StatementResult> result = executor->ExecutePlan(plan.get());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ExplainPlan(*plan);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExplainTest, CoveredPointProbe) {
  EXPECT_EQ(Explain(Query::Point(0, 5)),
            "Materialize  [rows=1 fetched=1]\n"
            "`- PartialIndexProbe(col0 = 5)  [rows=1 probes=1 tier=partial]\n");
}

TEST_F(ExplainTest, ConjunctiveProbeWithResidualFilter) {
  // The acceptance shape: two-column conjunction, col0 covered, col1 as a
  // residual Filter above the probe (col1 = 105 matches the col0 = 5 row).
  EXPECT_EQ(
      Explain(Query::Point(0, 5).And(1, 100, 200)),
      "Materialize  [rows=1]\n"
      "`- Filter(col1 in [100,200])  [rows=1 rows_in=1 fetched=1]\n"
      "   `- PartialIndexProbe(col0 = 5)  [rows=1 probes=1 tier=partial]\n");
}

TEST_F(ExplainTest, ResidualFilterRejectsRow) {
  EXPECT_EQ(
      Explain(Query::Point(0, 5).And(1, 0, 50)),
      "Materialize  [rows=0]\n"
      "`- Filter(col1 in [0,50])  [rows=0 rows_in=1 fetched=1]\n"
      "   `- PartialIndexProbe(col0 = 5)  [rows=1 probes=1 tier=partial]\n");
}

TEST_F(ExplainTest, FirstMissIndexingScan) {
  // col0 = 20 is uncovered: the adaptive miss path. First miss ever, so
  // the buffer arrives empty (no partitions — buffer_probes omitted as 0):
  // pages 0-1 skip (fully covered), pages 2-5 scan, and Algorithm 2
  // selects all four counted pages, indexing their 14 uncovered tuples.
  EXPECT_EQ(Explain(Query::Point(0, 20)),
            "Materialize  [rows=1]\n"
            "`- IndexingTableScan(col0 = 20)  "
            "[rows=1 scanned=4 skipped=2 selected=4 entries_added=14]\n"
            "   `- IndexBufferProbe(col0 = 20)  [rows=0]\n");
}

TEST_F(ExplainTest, WarmBufferAnswersFromProbe) {
  // After the first miss everything uncovered is indexed: the second miss
  // skips all 6 pages and answers from the buffer's single partition.
  ASSERT_TRUE(
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 20))).ok());
  EXPECT_EQ(Explain(Query::Point(0, 21)),
            "Materialize  [rows=1 fetched=1]\n"
            "`- IndexingTableScan(col0 = 21)  [rows=1 skipped=6]\n"
            "   `- IndexBufferProbe(col0 = 21)  "
            "[rows=1 buffer_probes=1 buffer_matches=1 tier=hot]\n");
}

TEST_F(ExplainTest, HybridRangeWithCoveredOnSkippedTail) {
  // [5,12] straddles the coverage boundary at 10. The scan covers pages
  // 2-5 (values 9-12 match on page 2); the tail re-reads the partial index
  // for covered matches on the *skipped* pages 0-1 (values 5-8, page 1).
  EXPECT_EQ(Explain(Query::Range(0, 5, 12)),
            "Materialize  [rows=8 fetched=1]\n"
            "`- IndexingTableScan(col0 in [5,12])  "
            "[rows=8 scanned=4 skipped=2 selected=4 entries_added=14]\n"
            "   |- IndexBufferProbe(col0 in [5,12])  [rows=0]\n"
            "   `- CoveredOnSkippedFetch(col0 in [5,12])  [rows=4 probes=1 tier=partial]\n");
}

TEST_F(ExplainTest, UnindexedColumnFullScan) {
  EXPECT_EQ(Explain(Query::Point(1, 105)),
            "FullTableScan(col1 = 105)  [rows=1 scanned=6]\n");
}

TEST_F(ExplainTest, ConjunctiveFullScanShowsWholeConjunction) {
  EXPECT_EQ(Explain(Query::Range(1, 101, 112).And(1, 105, 200)),
            "FullTableScan(col1 in [101,112] AND col1 in [105,200])  "
            "[rows=8 scanned=6]\n");
}

TEST_F(ExplainTest, InsertStatementGolden) {
  // Pages 0-5 are full, so the insert lands on a fresh page. The node
  // renders the statement kind, the new tuple's image, and the maintenance
  // summary: partial index, Index Buffer, and C[p] are all kept current.
  std::unique_ptr<PhysicalPlan> plan =
      db_->executor()->PlanStatement(Statement::Insert(Tuple({25, 125}, {"p"})));
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->IsDml());
  EXPECT_EQ(plan->statement_kind(), StatementKind::kInsert);
  ASSERT_TRUE(db_->executor()->ExecutePlan(plan.get()).ok());
  EXPECT_EQ(ExplainPlan(*plan),
            "Insert(col0=25, col1=125 -> maintenance: pidx+ibuf+C[p])  "
            "[rows=1]\n");
}

TEST_F(ExplainTest, UpdateStatementGolden) {
  // col0 = 21 sits at page 5, slot 0. The replacement image has the same
  // footprint, so the tuple stays in place; the rendering names the target
  // rid, the new image, and the maintenance summary.
  EXPECT_EQ(
      ExplainStatement(Statement::Update(Rid{5, 0}, Tuple({21, 999}, {"p"}))),
      "Update(rid=(5,0) set col0=21, col1=999 -> maintenance: pidx+ibuf+C[p])"
      "  [rows=1]\n");
}

TEST_F(ExplainTest, DeleteStatementGolden) {
  // col0 = 24 sits at page 5, slot 3 (uncovered, unbuffered: the delete
  // still walks the maintenance path, which no-ops per Table I).
  EXPECT_EQ(ExplainStatement(Statement::Delete(Rid{5, 3})),
            "Delete(rid=(5,3) -> maintenance: pidx+ibuf+C[p])  [rows=1]\n");
}

TEST_F(ExplainTest, DmlStructureRenderableBeforeExecution) {
  std::unique_ptr<PhysicalPlan> plan =
      db_->executor()->PlanStatement(Statement::Delete(Rid{5, 3}));
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(plan->executed());
  EXPECT_EQ(ExplainPlan(*plan),
            "Delete(rid=(5,3) -> maintenance: pidx+ibuf+C[p])  [rows=0]\n");
}

TEST_F(ExplainTest, StructureRenderableBeforeExecution) {
  // ExplainPlan before Run(): structure with zeroed counters.
  std::unique_ptr<PhysicalPlan> plan =
      db_->executor()->PlanStatement(Statement::Select(Query::Point(0, 5)));
  EXPECT_FALSE(plan->executed());
  EXPECT_EQ(ExplainPlan(*plan),
            "Materialize  [rows=0]\n"
            "`- PartialIndexProbe(col0 = 5)  [rows=0]\n");
}

}  // namespace
}  // namespace aib
