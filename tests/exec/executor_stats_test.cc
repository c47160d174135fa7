// Detailed per-query statistics contracts: the benches and EXPERIMENTS.md
// interpret these fields, so their semantics are pinned here.

#include <gtest/gtest.h>

#include <unordered_set>

#include "../test_util.h"

namespace aib {
namespace {

using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;

class ExecutorStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.max_tuples_per_page = 10;
    db_ = MakeSmallPaperDb(1000, 300, 30, options);
    ASSERT_NE(db_, nullptr);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExecutorStatsTest, IndexHitCountsFetchedPagesDistinctly) {
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 15)));
  ASSERT_TRUE(result.ok());
  std::unordered_set<PageId> distinct_pages;
  for (const Rid& rid : result->rids) distinct_pages.insert(rid.page_id);
  EXPECT_EQ(result->stats.pages_fetched, distinct_pages.size());
  EXPECT_EQ(result->stats.ix_probes, 1u);
  EXPECT_EQ(result->stats.pages_scanned, 0u);
  EXPECT_EQ(result->stats.pages_skipped, 0u);
}

TEST_F(ExecutorStatsTest, MissPartitionsPagesBetweenScannedAndSkipped) {
  // First miss: scanned + skipped must cover the whole table.
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 200)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.pages_scanned + result->stats.pages_skipped,
            db_->table().PageCount());
  // Second miss: same invariant, different split.
  Result<StatementResult> second =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 201)));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.pages_scanned + second->stats.pages_skipped,
            db_->table().PageCount());
  EXPECT_GT(second->stats.pages_skipped, result->stats.pages_skipped);
}

TEST_F(ExecutorStatsTest, EntriesAddedMatchesBufferGrowth) {
  IndexBuffer* buffer = db_->GetBuffer(0);
  const size_t before = buffer == nullptr ? 0 : buffer->TotalEntries();
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 150)));
  ASSERT_TRUE(result.ok());
  buffer = db_->GetBuffer(0);
  ASSERT_NE(buffer, nullptr);
  EXPECT_EQ(buffer->TotalEntries() - before, result->stats.entries_added);
}

TEST_F(ExecutorStatsTest, ResultCountEqualsRids) {
  for (Value v : {10, 100, 250}) {
    Result<StatementResult> result =
        db_->ExecuteStatement(Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stats.result_count, result->rids.size());
  }
}

TEST_F(ExecutorStatsTest, BufferMatchesReportedOnWarmQueries) {
  // Warm.
  ASSERT_TRUE(
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 123))).ok());
  Result<StatementResult> warm =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 123)));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.buffer_matches, warm->rids.size());
  EXPECT_GT(warm->stats.buffer_probes, 0u);
}

TEST_F(ExecutorStatsTest, CostConsistentWithCostModel) {
  Result<StatementResult> result =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 170)));
  ASSERT_TRUE(result.ok());
  CostModel model(db_->options().cost);
  EXPECT_DOUBLE_EQ(result->stats.cost, model.QueryCost(result->stats));
}

TEST_F(ExecutorStatsTest, MetricsRegistryTracksScans) {
  const int64_t reads_before = db_->metrics().Get(kMetricBufferMisses) +
                               db_->metrics().Get(kMetricBufferHits);
  ASSERT_TRUE(
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 222))).ok());
  const int64_t reads_after = db_->metrics().Get(kMetricBufferMisses) +
                              db_->metrics().Get(kMetricBufferHits);
  EXPECT_GT(reads_after, reads_before);  // the scan touched page frames
  EXPECT_GT(db_->metrics().Get(kMetricIbEntriesAdded), 0);
}

TEST_F(ExecutorStatsTest, SkippedPagesChargeNoCost) {
  // Warm everything.
  ASSERT_TRUE(
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 60))).ok());
  Result<StatementResult> warm =
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 61)));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->stats.pages_scanned, 0u);
  // Cost is only probes + result fetches — orders below one page scan per
  // skipped page.
  EXPECT_LT(warm->stats.cost,
            static_cast<double>(warm->stats.pages_skipped) * 0.1);
}

TEST_F(ExecutorStatsTest, DemotedPartitionsReportedUnderPressure) {
  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 150;
  options.space.max_pages_per_scan = 10;
  options.buffer.partition_pages = 4;
  auto db = MakeSmallPaperDb(1000, 300, 30, options, 31);
  ASSERT_NE(db, nullptr);
  // Fill the space via column A, then query column B until displacement.
  // Default mode demotes victims cold instead of dropping them.
  bool saw_demote = false;
  for (Value v = 100; v < 130 && !saw_demote; ++v) {
    Result<StatementResult> a =
        db->ExecuteStatement(Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(a.ok());
    Result<StatementResult> b =
        db->ExecuteStatement(Statement::Select(Query::Point(1, v)));
    ASSERT_TRUE(b.ok());
    saw_demote = b->stats.partitions_demoted > 0 ||
                 a->stats.partitions_demoted > 0;
    if (saw_demote) {
      const QueryStats& s = b->stats.partitions_demoted > 0 ? b->stats
                                                            : a->stats;
      EXPECT_GT(s.entries_demoted, 0u);
      EXPECT_EQ(s.partitions_dropped, 0u);
    }
  }
  EXPECT_TRUE(saw_demote);
}

TEST_F(ExecutorStatsTest, DroppedPartitionsReportedUnderPressureInDropMode) {
  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 150;
  options.space.max_pages_per_scan = 10;
  options.space.eviction_mode = EvictionMode::kDrop;
  options.buffer.partition_pages = 4;
  auto db = MakeSmallPaperDb(1000, 300, 30, options, 31);
  ASSERT_NE(db, nullptr);
  bool saw_drop = false;
  for (Value v = 100; v < 130 && !saw_drop; ++v) {
    Result<StatementResult> a =
        db->ExecuteStatement(Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(a.ok());
    Result<StatementResult> b =
        db->ExecuteStatement(Statement::Select(Query::Point(1, v)));
    ASSERT_TRUE(b.ok());
    saw_drop = b->stats.partitions_dropped > 0 ||
               a->stats.partitions_dropped > 0;
    if (saw_drop) {
      const QueryStats& s = b->stats.partitions_dropped > 0 ? b->stats
                                                            : a->stats;
      EXPECT_GT(s.entries_dropped, 0u);
    }
  }
  EXPECT_TRUE(saw_drop);
}

}  // namespace
}  // namespace aib
