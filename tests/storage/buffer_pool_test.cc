#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <list>
#include <map>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
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

// --- Eviction-order oracle ---------------------------------------------------

/// Reference model of one pool shard's replacement policy, kept
/// deliberately naive: std::list segments and a hash page table, the
/// textbook shape of the segmented LRU the pool implements. Frames are
/// handed out in the pool's order (free list first, lowest index first),
/// so the model also predicts *which* frame every page lands in.
class ReferencePool {
 public:
  ReferencePool(size_t capacity, EvictionPolicy policy, double fraction)
      : policy_(policy), frames_(capacity) {
    for (size_t i = capacity; i > 0; --i) free_.push_back(i - 1);
    protected_cap_ = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(capacity) * fraction));
  }

  /// Returns the frame index now holding `page`, or nullopt for Busy.
  std::optional<size_t> Fetch(PageId page) {
    if (auto it = table_.find(page); it != table_.end()) {
      Frame& frame = frames_[it->second];
      if (frame.in_list) {
        (frame.protected_seg ? hot_ : lru_).erase(frame.pos);
        frame.in_list = false;
      }
      if (policy_ == EvictionPolicy::kSegmented && !frame.protected_seg) {
        Promote(frame);
      }
      ++frame.pin_count;
      ++hits;
      return it->second;
    }
    size_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      std::list<size_t>* source = lru_.empty() ? &hot_ : &lru_;
      if (source->empty()) {
        ++pin_waits;
        return std::nullopt;
      }
      index = source->front();
      source->pop_front();
      Frame& victim = frames_[index];
      victim.in_list = false;
      if (victim.protected_seg) {
        victim.protected_seg = false;
        --protected_frames_;
      }
      if (victim.dirty) ++pages_written;
      table_.erase(victim.page);
    }
    Frame& frame = frames_[index];
    frame.page = page;
    frame.pin_count = 1;
    frame.dirty = false;
    frame.protected_seg = false;
    frame.in_list = false;
    table_[page] = index;
    ++misses;
    ++pages_read;
    return index;
  }

  /// False where the pool answers InvalidArgument.
  bool Unpin(PageId page, bool dirty) {
    auto it = table_.find(page);
    if (it == table_.end() || frames_[it->second].pin_count <= 0) {
      return false;
    }
    Frame& frame = frames_[it->second];
    frame.dirty = frame.dirty || dirty;
    if (--frame.pin_count == 0) {
      if (frame.protected_seg && protected_frames_ > protected_cap_) {
        frame.protected_seg = false;
        --protected_frames_;
        ++demotions;
      }
      std::list<size_t>& list = frame.protected_seg ? hot_ : lru_;
      frame.pos = list.insert(list.end(), it->second);
      frame.in_list = true;
    }
    return true;
  }

  void Flush(PageId page) {
    auto it = table_.find(page);
    if (it == table_.end()) return;
    Frame& frame = frames_[it->second];
    if (frame.dirty) {
      ++pages_written;
      frame.dirty = false;
    }
  }

  void FlushAll() {
    for (const auto& [page, index] : table_) Flush(page);
  }

  size_t cached() const { return table_.size(); }
  int pins(PageId page) const {
    auto it = table_.find(page);
    return it == table_.end() ? 0 : frames_[it->second].pin_count;
  }

  int64_t hits = 0;
  int64_t misses = 0;
  int64_t pin_waits = 0;
  int64_t pages_read = 0;
  int64_t pages_written = 0;
  int64_t promotions = 0;
  int64_t demotions = 0;

 private:
  struct Frame {
    PageId page = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool protected_seg = false;
    bool in_list = false;
    std::list<size_t>::iterator pos;
  };

  void Promote(Frame& frame) {
    frame.protected_seg = true;
    ++protected_frames_;
    ++promotions;
    while (protected_frames_ > protected_cap_ && !hot_.empty()) {
      const size_t demoted = hot_.front();
      hot_.pop_front();
      Frame& cold = frames_[demoted];
      cold.protected_seg = false;
      --protected_frames_;
      cold.pos = lru_.insert(lru_.end(), demoted);
      ++demotions;
    }
  }

  EvictionPolicy policy_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_;
  std::unordered_map<PageId, size_t> table_;
  std::list<size_t> lru_;
  std::list<size_t> hot_;
  size_t protected_frames_ = 0;
  size_t protected_cap_ = 0;
};

/// Replays one seeded trace of fetches, short visits, unpins (clean and
/// dirty), stray unpins and flushes on a one-shard pool and on the
/// reference model (where a visit is a fetch plus a clean unpin), and
/// compares them after every operation: the frame each fetched page lands
/// in (Page* identity), Busy verdicts, cached page count, hits, misses,
/// pages read and written, pin waits, promotions and demotions.
void ReplayAgainstReference(EvictionPolicy policy, size_t capacity,
                            uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "policy=" << static_cast<int>(policy)
               << " capacity=" << capacity << " seed=" << seed);
  constexpr size_t kOps = 10000;
  const size_t num_pages = 2 * capacity + 3;
  Metrics metrics;
  DiskManager disk(512, &metrics);
  for (size_t i = 0; i < num_pages; ++i) disk.AllocatePage();
  BufferPoolOptions options;
  options.shards = 1;
  options.policy = policy;
  options.pin_wait_timeout = std::chrono::milliseconds(0);
  BufferPool pool(&disk, capacity, &metrics, options);
  ReferencePool model(capacity, policy, options.protected_fraction);

  // Frame identity: the pool's Page* of a frame never changes, so the
  // first page landing in a model frame fixes its pointer.
  std::map<size_t, const Page*> frame_page;
  std::map<const Page*, size_t> page_frame;
  std::vector<PageId> pinned;  // one entry per outstanding pin
  Rng rng(seed);
  for (size_t op = 0; op < kOps; ++op) {
    SCOPED_TRACE(::testing::Message() << "op " << op);
    const int64_t roll = rng.UniformInt(0, 99);
    // A skewed page choice: a small hot set re-referenced often (the
    // promotion signal) beside a uniform sweep over every page.
    const PageId page = static_cast<PageId>(
        rng.Bernoulli(0.5)
            ? rng.UniformInt(0, static_cast<int64_t>(capacity / 2))
            : rng.UniformInt(0, static_cast<int64_t>(num_pages) - 1));
    if (roll < 15) {
      // A short visit must be exactly FetchPage + UnpinPage: same frame,
      // same Busy verdict, same segment moves and counters.
      const Page* visited = nullptr;
      const Status status =
          pool.VisitPage(page, [&](const Page& p) { visited = &p; });
      const std::optional<size_t> frame = model.Fetch(page);
      ASSERT_EQ(status.ok(), frame.has_value()) << status.ToString();
      if (frame.has_value()) {
        auto [it, fresh] = frame_page.emplace(*frame, visited);
        ASSERT_EQ(it->second, visited) << "page " << page
                                       << " visited in another frame";
        if (fresh) {
          ASSERT_TRUE(page_frame.emplace(visited, *frame).second);
        }
        ASSERT_TRUE(model.Unpin(page, false));
      } else {
        ASSERT_TRUE(status.IsBusy());
      }
    } else if (roll < 50 && pinned.size() <= capacity + 2) {
      Result<Page*> fetched = pool.FetchPage(page);
      const std::optional<size_t> frame = model.Fetch(page);
      ASSERT_EQ(fetched.ok(), frame.has_value())
          << fetched.status().ToString();
      if (frame.has_value()) {
        auto [it, fresh] = frame_page.emplace(*frame, fetched.value());
        ASSERT_EQ(it->second, fetched.value()) << "page " << page
                                               << " landed in another frame";
        if (fresh) {
          ASSERT_TRUE(page_frame.emplace(fetched.value(), *frame).second);
        }
        pinned.push_back(page);
      } else {
        ASSERT_TRUE(fetched.status().IsBusy());
      }
    } else if (roll < 92 && !pinned.empty()) {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pinned.size()) - 1));
      const PageId victim = pinned[pick];
      pinned[pick] = pinned.back();
      pinned.pop_back();
      const bool dirty = rng.Bernoulli(0.3);
      ASSERT_TRUE(pool.UnpinPage(victim, dirty).ok());
      ASSERT_TRUE(model.Unpin(victim, dirty));
    } else if (roll < 96) {
      // A stray unpin: InvalidArgument unless the page happens to be
      // pinned, in which case both sides release one pin.
      const bool ok = pool.UnpinPage(page, false).ok();
      ASSERT_EQ(ok, model.Unpin(page, false));
      if (ok) {
        auto it = std::find(pinned.begin(), pinned.end(), page);
        ASSERT_NE(it, pinned.end());
        *it = pinned.back();
        pinned.pop_back();
      }
    } else {
      ASSERT_TRUE(pool.FlushPage(page).ok());
      model.Flush(page);
    }
    ASSERT_EQ(pool.CachedPages(), model.cached());
    ASSERT_EQ(pool.hits(), model.hits);
    ASSERT_EQ(pool.misses(), model.misses);
    ASSERT_EQ(pool.pin_waits(), model.pin_waits);
    ASSERT_EQ(metrics.Get(kMetricPagesRead), model.pages_read);
    ASSERT_EQ(metrics.Get(kMetricPagesWritten), model.pages_written);
    ASSERT_EQ(metrics.Get(kMetricBufferPromotions), model.promotions);
    ASSERT_EQ(metrics.Get(kMetricBufferDemotions), model.demotions);
  }
  for (const PageId page : pinned) {
    ASSERT_TRUE(pool.UnpinPage(page, false).ok());
    ASSERT_TRUE(model.Unpin(page, false));
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  model.FlushAll();
  EXPECT_EQ(metrics.Get(kMetricPagesWritten), model.pages_written);
  EXPECT_GT(model.hits, 0);
  EXPECT_GT(model.pin_waits + model.pages_written, 0);
}

TEST(BufferPoolOracleTest, LruMatchesReferenceModel) {
  for (size_t capacity = 3; capacity <= 16; ++capacity) {
    ReplayAgainstReference(EvictionPolicy::kLru, capacity, 1000 + capacity);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BufferPoolOracleTest, SegmentedMatchesReferenceModel) {
  for (size_t capacity = 3; capacity <= 16; ++capacity) {
    ReplayAgainstReference(EvictionPolicy::kSegmented, capacity,
                           2000 + capacity);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace aib
