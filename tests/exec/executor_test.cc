#include "exec/executor.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/rng.h"

namespace aib {
namespace {

using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::Sorted;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallPaperDb(/*num_tuples=*/2000, /*value_max=*/1000,
                           /*covered_hi=*/100);
    ASSERT_NE(db_, nullptr);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExecutorTest, CoveredPointQueryUsesPartialIndex) {
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 50)));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.used_partial_index);
  EXPECT_FALSE(result->stats.used_index_buffer);
  EXPECT_EQ(result->stats.pages_scanned, 0u);
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db_, 0, 50, 50)));
}

TEST_F(ExecutorTest, UncoveredPointQueryUsesIndexingScan) {
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 500)));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.used_partial_index);
  EXPECT_TRUE(result->stats.used_index_buffer);
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db_, 0, 500, 500)));
}

TEST_F(ExecutorTest, RepeatedMissesGetCheaper) {
  Result<StatementResult> first =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 500)));
  ASSERT_TRUE(first.ok());
  Result<StatementResult> second =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 501)));
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->stats.cost, first->stats.cost);
  EXPECT_GT(second->stats.pages_skipped, first->stats.pages_skipped);
}

TEST_F(ExecutorTest, ResultsStayCorrectAcrossWarmup) {
  for (Value v = 500; v < 520; ++v) {
    Result<StatementResult> result =
        db_->ExecuteStatement(Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db_, 0, v, v)))
        << "value " << v;
  }
}

TEST_F(ExecutorTest, FullScanBaselineMatchesGroundTruth) {
  // The fixture's data without partial indexes: a select on an unindexed
  // column is a plain full table scan.
  PaperSetupOptions setup;
  setup.num_tuples = 2000;
  setup.value_max = 1000;
  setup.payload_max = 64;
  setup.seed = 99;
  setup.create_indexes = false;
  auto db = std::move(BuildPaperDatabase(setup)).value();
  Result<StatementResult> result =
      db->ExecuteStatement(Statement::Select(Query::Point(1, 700)));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.used_partial_index);
  EXPECT_FALSE(result->stats.used_index_buffer);
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, 1, 700, 700)));
  EXPECT_EQ(result->stats.pages_scanned, db->table().PageCount());
  EXPECT_GT(result->stats.cost, 0);
}

TEST_F(ExecutorTest, UncoveredRangeQueryCorrect) {
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Range(0, 400, 450)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db_, 0, 400, 450)));
}

TEST_F(ExecutorTest, CoveredRangeQueryUsesIndex) {
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Range(0, 10, 60)));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.used_partial_index);
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db_, 0, 10, 60)));
}

TEST_F(ExecutorTest, HybridRangeSpanningCoverageBoundaryCorrect) {
  // [50, 150] crosses the coverage boundary at 100: partial-index hits and
  // scan results must union exactly, repeatedly, as the buffer builds up.
  for (int round = 0; round < 3; ++round) {
    Result<StatementResult> result =
        db_->ExecuteStatement(Statement::Select(Query::Range(0, 50, 150)));
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->stats.used_partial_index);
    std::vector<Rid> got = Sorted(result->rids);
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "duplicates in round " << round;
    EXPECT_EQ(got, Sorted(GroundTruth(*db_, 0, 50, 150)))
        << "round " << round;
  }
}

TEST_F(ExecutorTest, QueriesOnDifferentColumnsIndependent) {
  Result<StatementResult> a =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 600)));
  Result<StatementResult> b =
      db_->ExecuteStatement(Statement::Select(Query::Point(1, 600)));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Sorted(b->rids), Sorted(GroundTruth(*db_, 1, 600, 600)));
  ASSERT_NE(db_->GetBuffer(0), nullptr);
  ASSERT_NE(db_->GetBuffer(1), nullptr);
  ASSERT_NE(db_->GetBuffer(2), nullptr);  // created with the partial index
  EXPECT_GT(db_->GetBuffer(0)->TotalEntries(), 0u);
  EXPECT_GT(db_->GetBuffer(1)->TotalEntries(), 0u);
  EXPECT_EQ(db_->GetBuffer(2)->TotalEntries(), 0u);  // never missed on C
}

TEST_F(ExecutorTest, StatsCostAndTimePopulated) {
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 800)));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.cost, 0.0);
  EXPECT_GT(result->stats.wall_ns, 0);
  EXPECT_EQ(result->stats.result_count, result->rids.size());
}

TEST(ExecutorNoSpaceTest, MissWithoutBufferFallsBackToFullScan) {
  DatabaseOptions options;
  options.enable_index_buffer = false;
  auto db = MakeSmallPaperDb(1000, 1000, 100, options);
  ASSERT_NE(db, nullptr);
  Result<StatementResult> result =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 500)));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.used_index_buffer);
  EXPECT_EQ(result->stats.pages_scanned, db->table().PageCount());
  EXPECT_EQ(Sorted(result->rids),
            Sorted(GroundTruth(*db, 0, 500, 500)));
}

TEST(ExecutorNoIndexTest, QueryWithoutIndexFullScans) {
  DatabaseOptions options;
  auto db = std::make_unique<Database>(Schema::PaperSchema(1, 16), options);
  for (Value v = 0; v < 100; ++v) {
    ASSERT_TRUE(db->LoadTuple(Tuple({v}, {"p"})).ok());
  }
  Result<StatementResult> result =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 42)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rids.size(), 1u);
  EXPECT_FALSE(result->stats.used_partial_index);
  EXPECT_FALSE(result->stats.used_index_buffer);
}

/// Property: random mixed workloads always return exactly the ground truth.
class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorPropertyTest, RandomWorkloadAlwaysExact) {
  DatabaseOptions options;
  options.space.max_entries = 500;  // small budget: displacement happens
  options.space.max_pages_per_scan = 10;
  options.buffer.partition_pages = 8;
  auto db = MakeSmallPaperDb(1500, 800, 80, options, /*seed=*/GetParam());
  ASSERT_NE(db, nullptr);
  Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 60; ++i) {
    const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
    const Value lo = static_cast<Value>(rng.UniformInt(1, 800));
    const Value hi = rng.Bernoulli(0.3)
                         ? std::min<Value>(800, lo + static_cast<Value>(
                                                        rng.UniformInt(0, 60)))
                         : lo;
    Result<StatementResult> result =
        db->ExecuteStatement(Statement::Select(Query::Range(column, lo, hi)));
    ASSERT_TRUE(result.ok());
    std::vector<Rid> got = Sorted(result->rids);
    ASSERT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "duplicates at query " << i;
    ASSERT_EQ(got, Sorted(GroundTruth(*db, column, lo, hi)))
        << "query " << i << " col " << column << " [" << lo << "," << hi
        << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace aib
