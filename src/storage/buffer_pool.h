#ifndef AIB_STORAGE_BUFFER_POOL_H_
#define AIB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/grow_only_array.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace aib {

/// Frame-replacement policy of the pool.
enum class EvictionPolicy {
  /// Pure least-recently-used (the original policy): every unpinned frame
  /// sits in one LRU list; a sequential sweep flushes everything.
  kLru,
  /// Segmented (scan-resistant) LRU: frames enter a *probationary* segment
  /// and are promoted to a *protected* segment on re-reference. Victims
  /// come from probation first, so pages touched exactly once by an
  /// analytical sweep cannot displace the re-referenced hot set that
  /// covered probes and partial-index probes depend on.
  kSegmented,
};

struct BufferPoolOptions {
  /// How long FetchPage blocks for a frame to be unpinned when every frame
  /// is transiently pinned by concurrent queries, before giving up with a
  /// retriable Busy status. 0 fails immediately (still Busy, still
  /// retriable — unpinning any page unblocks the next attempt).
  std::chrono::milliseconds pin_wait_timeout{50};

  /// How many times a disk read/write that fails with a *transient* status
  /// (see Status::IsTransient) is re-issued before the failure is surfaced.
  /// The bounded retry absorbs the FaultInjector's transient I/O errors so
  /// they never reach query results; corruption is surfaced immediately for
  /// the degradation path to handle.
  size_t max_transient_retries = 3;

  /// Latch shards the frames are partitioned into (page -> shard by id).
  /// The effective count is min(shards, max(1, capacity / 8)), so small
  /// pools — where per-pool LRU order is observable and tested — keep a
  /// single latch, while large pools let morsel-parallel scan workers
  /// fetch pages without contending on one mutex.
  size_t shards = 8;

  /// Replacement policy. Segmented is the default: it degrades to plain
  /// LRU on single-touch workloads and is strictly better under scan
  /// flooding (see EvictionPolicy).
  EvictionPolicy policy = EvictionPolicy::kSegmented;

  /// Fraction of each shard's frames the protected segment may hold
  /// (kSegmented only). The rest stays probationary so sweeps always have
  /// staging room without evicting hot frames.
  double protected_fraction = 0.75;
};

/// Database buffer: a fixed number of page frames over the simulated disk
/// with LRU replacement and pin counting. The Index Buffer of the paper
/// "resides within the database buffer"; in this library the Index Buffer
/// Space is budgeted separately in entries (IndexBufferSpace), while the
/// BufferPool provides the page-caching layer underneath the table scans.
///
/// Thread-safe and latch-sharded: frames are partitioned by page id into
/// independent shards, each with its own latch, dense page -> frame table,
/// free list, and intrusive LRU lists, so concurrent QueryService workers
/// and morsel-parallel scan workers touching different pages rarely
/// contend. Eviction is pin-count-aware per shard (only unpinned frames
/// are victims); when every frame of a page's shard is pinned, FetchPage
/// blocks up to
/// `options.pin_wait_timeout` for an unpin in that shard (counted in
/// kMetricBufferPinWaits) instead of failing outright, and returns a
/// retriable Busy when the wait times out. Page *contents* are protected
/// by the pin protocol: a pinned page may be read concurrently; writers
/// must hold the only pin. The statement pipeline realizes that contract
/// at a higher level: the executor's statement latch is a shared-only
/// membrane, and a DML operator holds the heap page stripes of the pages
/// it mutates exclusively, while every reader holds the stripes of the
/// pages it reads shared. So no reader holds a pin on a page while a write
/// plan mutates it (see exec/executor.h and exec/dml_operators.h).
class BufferPool {
 public:
  /// `capacity` is the number of frames. The pool does not own `disk`.
  BufferPool(DiskManager* disk, size_t capacity, Metrics* metrics = nullptr,
             BufferPoolOptions options = {});

  /// Pins and returns the frame for `page_id`, reading it from disk on a
  /// miss. Blocks up to the configured pin-wait timeout when every frame of
  /// the page's shard is pinned; fails with Busy if none is released in
  /// time. A hit costs one table index and an intrusive unlink; the clock
  /// is read only when the fetch has to wait.
  Result<Page*> FetchPage(PageId page_id);

  /// Unpins the page; `dirty` marks the frame for write-back on eviction.
  Status UnpinPage(PageId page_id, bool dirty);

  /// A short read-only visit: runs `read(const Page&)` on `page_id` under
  /// its shard latch, one latch hold for FetchPage + UnpinPage's two, with
  /// exactly their LRU/segment moves and counters. A latched frame cannot
  /// be evicted, so no pin outlives the call. `read` must not call back
  /// into the pool.
  template <typename Read>
  Status VisitPage(PageId page_id, Read&& read) {
    Shard& shard = ShardFor(page_id);
    std::unique_lock<std::mutex> lock(shard.mu);
    AIB_ASSIGN_OR_RETURN(const uint32_t index, PinLocked(shard, page_id, lock));
    read(static_cast<const Page&>(*shard.frames[index].page));
    UnpinLocked(shard, index, /*dirty=*/false);
    return Status::Ok();
  }

  /// Cache hints for visits to `rids[i]`, i in `sel` (an index answer),
  /// stage by stage across all their pages so one stage's misses overlap:
  /// page-table slot and shard latch, frame, page header and slot entry.
  /// Takes no latch, reads only atomics, moves nothing.
  void Prefetch(std::span<const Rid> rids,
                std::span<const uint32_t> sel) const;

  /// Writes the frame back to disk if dirty; no-op for unbuffered pages.
  Status FlushPage(PageId page_id);

  /// Flushes every dirty frame, in ascending page id, so the write order
  /// (and with it a seeded fault stream) does not depend on the sharding.
  Status FlushAll();

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  size_t CachedPages() const;
  int64_t hits() const;
  int64_t misses() const;
  int64_t pin_waits() const;

 private:
  /// "No frame" / "no list neighbour" marker for frame indices.
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  struct Frame {
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    /// True when the frame belongs to the protected segment (kSegmented).
    bool protected_seg = false;
    /// True while the frame sits in its segment's list (pin_count == 0).
    bool in_list = false;
    /// Intrusive neighbours in the shard's lru/hot list while in_list.
    uint32_t prev = kNoFrame;
    uint32_t next = kNoFrame;
    /// Held inline, one pointer hop less per fetch; constructed on the
    /// frame's first use, so an idle frame costs no page of memory.
    std::optional<Page> page;
    /// page's bytes, set when it is built (they never move), for Prefetch.
    std::atomic<const uint8_t*> bytes{nullptr};
  };

  /// Intrusive doubly-linked list of unpinned frames, least recently used
  /// at the head; links live in Frame::prev/next, so moving a frame costs
  /// no allocation.
  struct FrameList {
    uint32_t head = kNoFrame;
    uint32_t tail = kNoFrame;
    bool empty() const { return head == kNoFrame; }
  };

  /// One latch domain: a slice of the frames with its own table and LRU.
  struct Shard {
    mutable std::mutex mu;
    /// Signalled whenever a pin count drops to zero.
    std::condition_variable frame_unpinned;
    std::vector<Frame> frames;
    std::vector<uint32_t> free_frames;
    /// Dense page table: slot page_id / shards -> frame index + 1, 0 if
    /// the page is not buffered. Page ids are dense per disk, and this
    /// shard holds exactly the ids congruent to it modulo the shard count.
    /// Written under the latch; Prefetch reads it without.
    GrowOnlyArray table;
    /// Pages currently mapped in `table`.
    size_t cached = 0;
    /// Unpinned *probationary* frames, least-recently-used first. Under
    /// kLru this is the only list.
    FrameList lru;
    /// Unpinned *protected* frames (kSegmented), LRU first. Victims are
    /// taken from here only when probation is empty.
    FrameList hot;
    /// Frames currently tagged protected (pinned or not), bounded by
    /// protected_cap.
    size_t protected_frames = 0;
    size_t protected_cap = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t pin_waits = 0;
  };

  Shard& ShardFor(PageId page_id) {
    return shards_[page_id % shards_.size()];
  }
  const Shard& ShardFor(PageId page_id) const {
    return shards_[page_id % shards_.size()];
  }

  /// Table slot of `page_id` within its shard.
  size_t SlotOf(PageId page_id) const { return page_id / shards_.size(); }

  /// Frame buffering `page_id` in `shard`, or kNoFrame. Exact under the
  /// shard latch; without it (Prefetch) the answer may already be stale.
  uint32_t FindFrame(const Shard& shard, PageId page_id) const {
    const uint32_t entry = shard.table.Load(SlotOf(page_id));
    return entry == 0 ? kNoFrame : entry - 1;
  }

  /// FetchPage's and UnpinPage's work under the held shard latch.
  Result<uint32_t> PinLocked(Shard& shard, PageId page_id,
                             std::unique_lock<std::mutex>& lock);
  void UnpinLocked(Shard& shard, uint32_t frame_index, bool dirty);

  /// Picks a frame to (re)use in `shard`: a free one, else the coldest
  /// unpinned probationary one, else the coldest unpinned protected one.
  /// Requires the shard latch held; Busy means "every frame currently
  /// pinned" and is translated into a wait by FetchPage.
  Result<uint32_t> GetVictimFrame(Shard& shard);

  /// Moves `frame` into the protected segment, demoting the coldest
  /// unpinned protected frame back to probation when over the cap.
  /// Requires the shard latch held and the frame off both lists.
  void Promote(Shard& shard, Frame& frame);

  /// Re-inserts an unpinned frame at the MRU end of its segment's list.
  /// Requires the shard latch held.
  void PushUnpinned(Shard& shard, uint32_t frame_index);

  /// Intrusive list primitives; require the shard latch held.
  static void PushBack(Shard& shard, FrameList& list, uint32_t frame_index);
  static void Unlink(Shard& shard, FrameList& list, uint32_t frame_index);

  /// Reads `page_id` into `out`, retrying transient failures up to
  /// `options_.max_transient_retries` times.
  Status ReadWithRetry(PageId page_id, Page* out);

  /// Writes `page` back, retrying transient failures.
  Status WriteWithRetry(PageId page_id, const Page& page);

  DiskManager* disk_;
  size_t capacity_;
  Metrics* metrics_;  // not owned; may be null
  BufferPoolOptions options_;
  /// Cached counter handles (null when metrics_ is null).
  std::atomic<int64_t>* hits_counter_ = nullptr;
  std::atomic<int64_t>* misses_counter_ = nullptr;
  std::atomic<int64_t>* pin_waits_counter_ = nullptr;
  std::atomic<int64_t>* retries_counter_ = nullptr;
  std::atomic<int64_t>* promotions_counter_ = nullptr;
  std::atomic<int64_t>* demotions_counter_ = nullptr;

  std::vector<Shard> shards_;
};

}  // namespace aib

#endif  // AIB_STORAGE_BUFFER_POOL_H_
