#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "storage/disk_manager.h"

namespace aib {
namespace {

TEST(DiskManagerTest, AllocateAndRoundTrip) {
  Metrics metrics;
  DiskManager disk(512, &metrics);
  const PageId id = disk.AllocatePage();
  EXPECT_EQ(id, 0u);
  Page page(512);
  SlotId slot;
  ASSERT_TRUE(page.Insert(std::vector<uint8_t>{1, 2, 3}, &slot).ok());
  ASSERT_TRUE(disk.WritePage(id, page).ok());
  Page read_back(512);
  ASSERT_TRUE(disk.ReadPage(id, &read_back).ok());
  std::span<const uint8_t> record;
  ASSERT_TRUE(read_back.Read(slot, &record).ok());
  EXPECT_EQ(record.size(), 3u);
  EXPECT_EQ(metrics.Get(kMetricPagesRead), 1);
  EXPECT_EQ(metrics.Get(kMetricPagesWritten), 1);
}

TEST(DiskManagerTest, ReadUnallocatedFails) {
  DiskManager disk(512);
  Page page(512);
  EXPECT_TRUE(disk.ReadPage(7, &page).IsInvalidArgument());
  EXPECT_TRUE(disk.WritePage(7, page).IsInvalidArgument());
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(512, &metrics_), pool_(&disk_, 3, &metrics_) {
    for (int i = 0; i < 10; ++i) disk_.AllocatePage();
  }

  Metrics metrics_;
  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, FetchMissThenHit) {
  Result<Page*> first = pool_.FetchPage(0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
  Result<Page*> second = pool_.FetchPage(0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(pool_.hits(), 1);
  EXPECT_EQ(pool_.misses(), 1);
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  for (PageId id = 0; id < 3; ++id) {
    ASSERT_TRUE(pool_.FetchPage(id).ok());
    ASSERT_TRUE(pool_.UnpinPage(id, false).ok());
  }
  // Touch page 0 so page 1 is the LRU victim.
  ASSERT_TRUE(pool_.FetchPage(0).ok());
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
  ASSERT_TRUE(pool_.FetchPage(3).ok());  // evicts page 1
  ASSERT_TRUE(pool_.UnpinPage(3, false).ok());
  const int64_t misses_before = pool_.misses();
  ASSERT_TRUE(pool_.FetchPage(0).ok());  // still cached
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
  EXPECT_EQ(pool_.misses(), misses_before);
  ASSERT_TRUE(pool_.FetchPage(1).ok());  // was evicted -> miss
  ASSERT_TRUE(pool_.UnpinPage(1, false).ok());
  EXPECT_EQ(pool_.misses(), misses_before + 1);
}

TEST_F(BufferPoolTest, AllPinnedReturnsRetriableBusy) {
  ASSERT_TRUE(pool_.FetchPage(0).ok());
  ASSERT_TRUE(pool_.FetchPage(1).ok());
  ASSERT_TRUE(pool_.FetchPage(2).ok());
  // Every frame pinned: the fetch waits out its timeout, then reports the
  // transient Busy (not a terminal NoSpace) and counts a pin wait.
  EXPECT_TRUE(pool_.FetchPage(3).status().IsBusy());
  EXPECT_EQ(pool_.pin_waits(), 1);
  EXPECT_EQ(metrics_.Get(kMetricBufferPinWaits), 1);
  // Unpinning one frame makes the retry succeed.
  ASSERT_TRUE(pool_.UnpinPage(1, false).ok());
  EXPECT_TRUE(pool_.FetchPage(3).ok());
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
  ASSERT_TRUE(pool_.UnpinPage(2, false).ok());
  ASSERT_TRUE(pool_.UnpinPage(3, false).ok());
}

TEST(BufferPoolPinWaitTest, ConcurrentUnpinUnblocksWaitingFetch) {
  Metrics metrics;
  DiskManager disk(512, &metrics);
  for (int i = 0; i < 4; ++i) disk.AllocatePage();
  BufferPoolOptions options;
  options.pin_wait_timeout = std::chrono::milliseconds(2000);
  BufferPool pool(&disk, 2, &metrics, options);
  ASSERT_TRUE(pool.FetchPage(0).ok());
  ASSERT_TRUE(pool.FetchPage(1).ok());

  std::thread unpinner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(pool.UnpinPage(0, false).ok());
  });
  // Blocks on the pinned pool until the other thread releases a frame —
  // well before the 2 s timeout.
  Result<Page*> fetched = pool.FetchPage(2);
  unpinner.join();
  ASSERT_TRUE(fetched.ok());
  EXPECT_GE(pool.pin_waits(), 1);
  ASSERT_TRUE(pool.UnpinPage(1, false).ok());
  ASSERT_TRUE(pool.UnpinPage(2, false).ok());
}

TEST(BufferPoolPinWaitTest, ZeroTimeoutFailsFast) {
  DiskManager disk(512);
  for (int i = 0; i < 3; ++i) disk.AllocatePage();
  BufferPoolOptions options;
  options.pin_wait_timeout = std::chrono::milliseconds(0);
  BufferPool pool(&disk, 1, nullptr, options);
  ASSERT_TRUE(pool.FetchPage(0).ok());
  EXPECT_TRUE(pool.FetchPage(1).status().IsBusy());
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
}

TEST_F(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  Result<Page*> page = pool_.FetchPage(0);
  ASSERT_TRUE(page.ok());
  SlotId slot;
  ASSERT_TRUE(page.value()->Insert(std::vector<uint8_t>{9, 9}, &slot).ok());
  ASSERT_TRUE(pool_.UnpinPage(0, /*dirty=*/true).ok());
  // Force page 0 out.
  for (PageId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(pool_.FetchPage(id).ok());
    ASSERT_TRUE(pool_.UnpinPage(id, false).ok());
  }
  // Authoritative copy reflects the modification.
  EXPECT_EQ(disk_.PeekPage(0).live_count(), 1);
}

TEST_F(BufferPoolTest, FlushPageWritesDirtyFrame) {
  Result<Page*> page = pool_.FetchPage(0);
  ASSERT_TRUE(page.ok());
  SlotId slot;
  ASSERT_TRUE(page.value()->Insert(std::vector<uint8_t>{1}, &slot).ok());
  ASSERT_TRUE(pool_.UnpinPage(0, true).ok());
  EXPECT_EQ(disk_.PeekPage(0).live_count(), 0);  // not yet flushed
  ASSERT_TRUE(pool_.FlushPage(0).ok());
  EXPECT_EQ(disk_.PeekPage(0).live_count(), 1);
}

TEST_F(BufferPoolTest, FlushAllWritesEverything) {
  for (PageId id = 0; id < 2; ++id) {
    Result<Page*> page = pool_.FetchPage(id);
    ASSERT_TRUE(page.ok());
    SlotId slot;
    ASSERT_TRUE(page.value()->Insert(std::vector<uint8_t>{7}, &slot).ok());
    ASSERT_TRUE(pool_.UnpinPage(id, true).ok());
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(disk_.PeekPage(0).live_count(), 1);
  EXPECT_EQ(disk_.PeekPage(1).live_count(), 1);
}

TEST_F(BufferPoolTest, UnpinErrors) {
  EXPECT_TRUE(pool_.UnpinPage(0, false).IsInvalidArgument());  // unbuffered
  ASSERT_TRUE(pool_.FetchPage(0).ok());
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
  EXPECT_TRUE(pool_.UnpinPage(0, false).IsInvalidArgument());  // not pinned
}

TEST_F(BufferPoolTest, PinCountingAllowsNestedFetches) {
  ASSERT_TRUE(pool_.FetchPage(0).ok());
  ASSERT_TRUE(pool_.FetchPage(0).ok());  // pin twice
  // One unpin is not enough to make it evictable; fill other frames and
  // check page 0 survives.
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
  ASSERT_TRUE(pool_.FetchPage(1).ok());
  ASSERT_TRUE(pool_.UnpinPage(1, false).ok());
  ASSERT_TRUE(pool_.FetchPage(2).ok());
  ASSERT_TRUE(pool_.UnpinPage(2, false).ok());
  ASSERT_TRUE(pool_.FetchPage(3).ok());  // must evict 1 or 2, not pinned 0
  ASSERT_TRUE(pool_.UnpinPage(3, false).ok());
  const int64_t misses_before = pool_.misses();
  ASSERT_TRUE(pool_.FetchPage(0).ok());
  EXPECT_EQ(pool_.misses(), misses_before);  // hit: page 0 stayed
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
}

TEST_F(BufferPoolTest, SegmentedEvictionKeepsHotSetThroughSweep) {
  // Re-reference pages 0 and 1 so they enter the protected segment
  // (protected cap = 0.75 * 3 frames = 2).
  for (int touch = 0; touch < 2; ++touch) {
    for (PageId id = 0; id < 2; ++id) {
      ASSERT_TRUE(pool_.FetchPage(id).ok());
      ASSERT_TRUE(pool_.UnpinPage(id, false).ok());
    }
  }
  EXPECT_EQ(metrics_.Get(kMetricBufferPromotions), 2);
  // A single-touch sweep of every other page churns through probation only.
  for (PageId id = 2; id < 10; ++id) {
    ASSERT_TRUE(pool_.FetchPage(id).ok());
    ASSERT_TRUE(pool_.UnpinPage(id, false).ok());
  }
  const int64_t misses_before = pool_.misses();
  ASSERT_TRUE(pool_.FetchPage(0).ok());
  ASSERT_TRUE(pool_.UnpinPage(0, false).ok());
  ASSERT_TRUE(pool_.FetchPage(1).ok());
  ASSERT_TRUE(pool_.UnpinPage(1, false).ok());
  EXPECT_EQ(pool_.misses(), misses_before);  // hot set survived the sweep
}

}  // namespace
}  // namespace aib
