#include "core/page_counters.h"

#include <gtest/gtest.h>

#include "index/partial_index.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/table.h"

namespace aib {
namespace {

class PageCountersTest : public ::testing::Test {
 protected:
  PageCountersTest()
      : disk_(4096),
        pool_(&disk_, 64),
        table_("t", Schema::PaperSchema(1, 16), &disk_, &pool_,
               HeapFileOptions{.max_tuples_per_page = 10}) {
    // 35 tuples, values 0..34, 10 per page -> 4 pages (10/10/10/5).
    for (Value v = 0; v < 35; ++v) {
      EXPECT_TRUE(table_.Insert(Tuple({v}, {"p"})).ok());
    }
  }

  DiskManager disk_;
  BufferPool pool_;
  Table table_;
};

TEST_F(PageCountersTest, InitCountsUncoveredTuples) {
  // Coverage [0, 9]: page 0 fully covered, the rest uncovered.
  PartialIndex index(&table_, 0, ValueCoverage::Range(0, 9));
  ASSERT_TRUE(index.Build().ok());
  PageCounters counters;
  counters.Reset(index.WalkTable(nullptr).value());
  ASSERT_EQ(counters.size(), 4u);
  EXPECT_EQ(counters.Get(0), 0u);
  EXPECT_EQ(counters.Get(1), 10u);
  EXPECT_EQ(counters.Get(2), 10u);
  EXPECT_EQ(counters.Get(3), 5u);
  EXPECT_EQ(counters.FullyIndexedPages(), 1u);
  EXPECT_EQ(counters.TotalUnindexed(), 25u);
}

TEST_F(PageCountersTest, InitWithPartialPageCoverage) {
  // Coverage [0, 4]: half of page 0 covered.
  PartialIndex index(&table_, 0, ValueCoverage::Range(0, 4));
  ASSERT_TRUE(index.Build().ok());
  PageCounters counters;
  counters.Reset(index.WalkTable(nullptr).value());
  EXPECT_EQ(counters.Get(0), 5u);
  EXPECT_EQ(counters.FullyIndexedPages(), 0u);
}

TEST_F(PageCountersTest, EmptyCoverageCountsEverything) {
  PartialIndex index(&table_, 0, ValueCoverage());
  ASSERT_TRUE(index.Build().ok());
  PageCounters counters;
  counters.Reset(index.WalkTable(nullptr).value());
  EXPECT_EQ(counters.TotalUnindexed(), 35u);
  EXPECT_EQ(counters.FullyIndexedPages(), 0u);
}

TEST(PageCountersUnitTest, IncrementDecrement) {
  PageCounters counters;
  counters.EnsureSize(3);
  counters.Increment(1);
  counters.Increment(1);
  counters.Decrement(1);
  EXPECT_EQ(counters.Get(1), 1u);
  EXPECT_EQ(counters.Get(0), 0u);
}

TEST(PageCountersUnitTest, EnsureSizeGrowsWithZeros) {
  PageCounters counters;
  counters.EnsureSize(2);
  counters.Set(1, 7);
  counters.EnsureSize(5);
  EXPECT_EQ(counters.size(), 5u);
  EXPECT_EQ(counters.Get(1), 7u);
  EXPECT_EQ(counters.Get(4), 0u);
}

TEST(PageCountersUnitTest, EnsureSizeNeverShrinks) {
  PageCounters counters;
  counters.EnsureSize(5);
  counters.EnsureSize(2);
  EXPECT_EQ(counters.size(), 5u);
}

}  // namespace
}  // namespace aib
