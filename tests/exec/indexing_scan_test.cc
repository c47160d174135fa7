#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "workload/database.h"

namespace aib {
namespace {

// Algorithm 1 (IndexingScan) through the statement path: every select
// here is an uncovered predicate, so it plans as an IndexingTableScan.
class IndexingScanTest : public ::testing::Test {
 protected:
  // 100 tuples, values 0..99, pages 0..9. Coverage [0, 19]: pages 0-1
  // fully covered. Index Buffer partitions of 4 pages.
  void MakeDatabase(BufferSpaceOptions space = {}) {
    DatabaseOptions options;
    options.max_tuples_per_page = 10;
    options.buffer.partition_pages = 4;
    options.space = space;
    db_ = std::make_unique<Database>(Schema::PaperSchema(1, 16), options);
    for (Value v = 0; v < 100; ++v) {
      rids_.push_back(db_->LoadTuple(Tuple({v}, {"p"})).value());
    }
    ASSERT_TRUE(db_->CreatePartialIndex(0, ValueCoverage::Range(0, 19)).ok());
  }

  StatementResult Select(Value lo, Value hi) {
    Result<StatementResult> result =
        db_->ExecuteStatement(Statement::Select(Query::Range(0, lo, hi)));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->stats.used_index_buffer);
    return std::move(result).value();
  }

  IndexBuffer* buffer() const { return db_->GetBuffer(0); }

  std::unique_ptr<Database> db_;
  std::vector<Rid> rids_;
};

TEST_F(IndexingScanTest, FirstScanFindsMatchesAndIndexesPages) {
  MakeDatabase();
  const StatementResult result = Select(55, 55);
  ASSERT_EQ(result.rids.size(), 1u);
  EXPECT_EQ(result.rids[0], rids_[55]);
  // Pages 0-1 were already fully indexed (skipped), 8 pages scanned.
  EXPECT_EQ(result.stats.pages_skipped, 2u);
  EXPECT_EQ(result.stats.pages_scanned, 8u);
  EXPECT_EQ(result.stats.buffer_matches, 0u);
  // Unlimited space: all 8 uncovered pages selected and indexed.
  EXPECT_EQ(result.stats.pages_selected, 8u);
  EXPECT_EQ(result.stats.entries_added, 80u);
  EXPECT_EQ(buffer()->TotalEntries(), 80u);
}

TEST_F(IndexingScanTest, SecondScanSkipsEverythingAndUsesBuffer) {
  MakeDatabase();
  Select(55, 55);
  const StatementResult second = Select(55, 55);
  ASSERT_EQ(second.rids.size(), 1u);
  EXPECT_EQ(second.rids[0], rids_[55]);
  EXPECT_EQ(second.stats.pages_scanned, 0u);
  EXPECT_EQ(second.stats.pages_skipped, 10u);
  EXPECT_EQ(second.stats.buffer_matches, 1u);
  EXPECT_EQ(second.stats.entries_added, 0u);
}

TEST_F(IndexingScanTest, ImaxLimitsProgressPerScan) {
  BufferSpaceOptions options;
  options.max_pages_per_scan = 3;
  MakeDatabase(options);
  const StatementResult first = Select(55, 55);
  EXPECT_EQ(first.stats.pages_selected, 3u);
  EXPECT_EQ(first.stats.entries_added, 30u);

  // Next scan skips 2 (covered) + 3 (buffered) pages and indexes 3 more.
  const StatementResult second = Select(56, 56);
  EXPECT_EQ(second.stats.pages_skipped, 5u);
  EXPECT_EQ(second.stats.pages_scanned, 5u);
  EXPECT_EQ(second.stats.pages_selected, 3u);
  EXPECT_EQ(buffer()->TotalEntries(), 60u);
}

TEST_F(IndexingScanTest, RangePredicateCollectsAllMatches) {
  MakeDatabase();
  std::vector<Rid> out = Select(50, 69).rids;
  ASSERT_EQ(out.size(), 20u);
  std::sort(out.begin(), out.end());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(out[i], rids_[50 + i]);
  }
}

TEST_F(IndexingScanTest, ResultsCompleteAcrossBufferAndScan) {
  // After a partial indexing pass, matches must come from both the buffer
  // (skipped pages) and the residual scan, with no duplicates or misses.
  BufferSpaceOptions options;
  options.max_pages_per_scan = 4;
  MakeDatabase(options);
  Select(20, 20);

  const StatementResult result = Select(20, 99);
  std::vector<Rid> out = result.rids;
  ASSERT_EQ(out.size(), 80u);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end())
      << "duplicate rids";
  EXPECT_GT(result.stats.buffer_matches, 0u);
}

TEST_F(IndexingScanTest, NoMatchesStillIndexes) {
  MakeDatabase();
  const StatementResult result = Select(5000, 5000);
  EXPECT_TRUE(result.rids.empty());
  EXPECT_EQ(result.stats.entries_added, 80u);
}

TEST_F(IndexingScanTest, CountersInvariantAfterScans) {
  // C[p] == 0 exactly for pages covered by IX or buffered.
  BufferSpaceOptions options;
  options.max_pages_per_scan = 3;
  MakeDatabase(options);
  for (Value v = 30; v < 32; ++v) Select(v, v);
  const Table& table = db_->table();
  const PartialIndex& index = *db_->GetIndex(0);
  for (size_t page = 0; page < table.PageCount(); ++page) {
    size_t uncovered_unbuffered = 0;
    ASSERT_TRUE(table.heap()
                    .ForEachTupleOnPage(
                        page,
                        [&](const Rid&, const Tuple& tuple) {
                          const Value v = tuple.IntValue(table.schema(), 0);
                          if (!index.Covers(v) &&
                              !buffer()->PageInBuffer(page)) {
                            ++uncovered_unbuffered;
                          }
                        })
                    .ok());
    EXPECT_EQ(buffer()->counters().Get(page), uncovered_unbuffered)
        << "page " << page;
  }
}

}  // namespace
}  // namespace aib
