#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace aib {

BufferPool::BufferPool(DiskManager* disk, size_t capacity, Metrics* metrics,
                       BufferPoolOptions options)
    : disk_(disk), capacity_(capacity), metrics_(metrics), options_(options) {
  assert(capacity_ > 0);
  if (metrics_ != nullptr) {
    hits_counter_ = metrics_->Counter(kMetricBufferHits);
    misses_counter_ = metrics_->Counter(kMetricBufferMisses);
    pin_waits_counter_ = metrics_->Counter(kMetricBufferPinWaits);
    retries_counter_ = metrics_->Counter(kMetricTransientRetries);
    promotions_counter_ = metrics_->Counter(kMetricBufferPromotions);
    demotions_counter_ = metrics_->Counter(kMetricBufferDemotions);
  }
  // Small pools keep one shard: their eviction order is observable (and
  // tested) at pool granularity, and a 3-frame pool split three ways would
  // change semantics, not just contention.
  size_t num_shards = std::min(std::max<size_t>(options_.shards, 1),
                               std::max<size_t>(1, capacity_ / 8));
  shards_ = std::vector<Shard>(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t shard_capacity =
        capacity_ / num_shards + (s < capacity_ % num_shards ? 1 : 0);
    Shard& shard = shards_[s];
    shard.frames = std::vector<Frame>(shard_capacity);
    shard.free_frames.reserve(shard_capacity);
    for (size_t i = shard_capacity; i > 0; --i) {
      shard.free_frames.push_back(static_cast<uint32_t>(i - 1));
    }
    // The protected segment is capped per shard so a fully-promoted hot
    // set still leaves probationary staging room for sweeps.
    const double fraction =
        std::clamp(options_.protected_fraction, 0.0, 1.0);
    shard.protected_cap = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(shard_capacity) *
                               fraction));
  }
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  Shard& shard = ShardFor(page_id);
  std::unique_lock<std::mutex> lock(shard.mu);
  AIB_ASSIGN_OR_RETURN(const uint32_t index, PinLocked(shard, page_id, lock));
  return &*shard.frames[index].page;
}

void BufferPool::Prefetch(std::span<const Rid> rids,
                          std::span<const uint32_t> sel) const {
  // Each stage reads only what the stage before brought in.
  for (const uint32_t i : sel) {
    const Shard& shard = ShardFor(rids[i].page_id);
    __builtin_prefetch(shard.table.Slot(SlotOf(rids[i].page_id)));
    __builtin_prefetch(&shard.mu, /*rw=*/1);
  }
  for (const uint32_t i : sel) {
    const Shard& shard = ShardFor(rids[i].page_id);
    const uint32_t index = FindFrame(shard, rids[i].page_id);
    if (index != kNoFrame) __builtin_prefetch(&shard.frames[index], 1);
  }
  for (const uint32_t i : sel) {
    const Shard& shard = ShardFor(rids[i].page_id);
    const uint32_t index = FindFrame(shard, rids[i].page_id);
    if (index == kNoFrame) continue;
    const uint8_t* bytes =
        shard.frames[index].bytes.load(std::memory_order_relaxed);
    if (bytes == nullptr) continue;
    __builtin_prefetch(bytes);
    __builtin_prefetch(bytes + Page::SlotOffsetPos(rids[i].slot));
  }
}

Result<uint32_t> BufferPool::PinLocked(Shard& shard, PageId page_id,
                                       std::unique_lock<std::mutex>& lock) {
  std::chrono::steady_clock::time_point deadline;
  bool waited = false;
  for (;;) {
    if (const uint32_t index = FindFrame(shard, page_id); index != kNoFrame) {
      Frame& frame = shard.frames[index];
      if (frame.in_list) {
        Unlink(shard, frame.protected_seg ? shard.hot : shard.lru, index);
      }
      // Re-reference of a probationary frame is the promotion signal: the
      // page has proven it is not a one-touch sweep page.
      if (options_.policy == EvictionPolicy::kSegmented &&
          !frame.protected_seg) {
        Promote(shard, frame);
      }
      ++frame.pin_count;
      ++shard.hits;
      if (hits_counter_ != nullptr) {
        hits_counter_->fetch_add(1, std::memory_order_relaxed);
      }
      return index;
    }

    Result<uint32_t> victim = GetVictimFrame(shard);
    if (!victim.ok()) {
      if (!victim.status().IsBusy()) return victim.status();
      // Every frame of this shard is pinned by in-flight queries. Block
      // for an unpin instead of failing: pins are short-lived (a page
      // scan, a tuple fetch), so a frame usually frees up well within the
      // timeout.
      if (!waited) {
        waited = true;
        deadline = std::chrono::steady_clock::now() + options_.pin_wait_timeout;
        ++shard.pin_waits;
        if (pin_waits_counter_ != nullptr) {
          pin_waits_counter_->fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (shard.frame_unpinned.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        return Status::Busy("all buffer pool frames are pinned");
      }
      continue;  // re-check the table: the page may have been loaded
    }

    const uint32_t frame_index = victim.value();
    Frame& frame = shard.frames[frame_index];
    if (!frame.page.has_value()) {
      frame.page.emplace(disk_->page_size());
      frame.bytes.store(frame.page->raw().data(), std::memory_order_relaxed);
    }
    if (Status read = ReadWithRetry(page_id, &*frame.page);
        !read.ok()) {
      // The victim frame was already detached from the table/LRU; hand it
      // back to the free list so the failed fetch does not leak capacity.
      shard.free_frames.push_back(frame_index);
      return read;
    }
    frame.page_id = page_id;
    frame.pin_count = 1;
    frame.dirty = false;
    frame.protected_seg = false;  // misses enter on probation
    frame.in_list = false;
    shard.table.Store(SlotOf(page_id), frame_index + 1);
    ++shard.cached;
    ++shard.misses;
    if (misses_counter_ != nullptr) {
      misses_counter_->fetch_add(1, std::memory_order_relaxed);
    }
    return frame_index;
  }
}

void BufferPool::PushBack(Shard& shard, FrameList& list,
                          uint32_t frame_index) {
  Frame& frame = shard.frames[frame_index];
  frame.prev = list.tail;
  frame.next = kNoFrame;
  if (list.tail != kNoFrame) {
    shard.frames[list.tail].next = frame_index;
  } else {
    list.head = frame_index;
  }
  list.tail = frame_index;
  frame.in_list = true;
}

void BufferPool::Unlink(Shard& shard, FrameList& list, uint32_t frame_index) {
  Frame& frame = shard.frames[frame_index];
  if (frame.prev != kNoFrame) {
    shard.frames[frame.prev].next = frame.next;
  } else {
    list.head = frame.next;
  }
  if (frame.next != kNoFrame) {
    shard.frames[frame.next].prev = frame.prev;
  } else {
    list.tail = frame.prev;
  }
  frame.prev = kNoFrame;
  frame.next = kNoFrame;
  frame.in_list = false;
}

Result<uint32_t> BufferPool::GetVictimFrame(Shard& shard) {
  if (!shard.free_frames.empty()) {
    const uint32_t index = shard.free_frames.back();
    shard.free_frames.pop_back();
    return index;
  }
  // Probationary frames go first; the protected segment is only eaten
  // into when no single-touch frame is left.
  FrameList* source = &shard.lru;
  if (source->empty()) source = &shard.hot;
  if (source->empty()) {
    return Status::Busy("all buffer pool frames are pinned");
  }
  const uint32_t index = source->head;
  Unlink(shard, *source, index);
  Frame& frame = shard.frames[index];
  if (frame.protected_seg) {
    frame.protected_seg = false;
    --shard.protected_frames;
  }
  assert(frame.pin_count == 0);
  if (frame.dirty) {
    AIB_RETURN_IF_ERROR(WriteWithRetry(frame.page_id, *frame.page));
  }
  shard.table.Store(SlotOf(frame.page_id), 0);
  --shard.cached;
  return index;
}

void BufferPool::Promote(Shard& shard, Frame& frame) {
  frame.protected_seg = true;
  ++shard.protected_frames;
  if (promotions_counter_ != nullptr) {
    promotions_counter_->fetch_add(1, std::memory_order_relaxed);
  }
  // Keep the protected segment under its cap by demoting its coldest
  // unpinned frames back to probation (MRU end: they were hot recently).
  while (shard.protected_frames > shard.protected_cap &&
         !shard.hot.empty()) {
    const uint32_t demoted = shard.hot.head;
    Unlink(shard, shard.hot, demoted);
    shard.frames[demoted].protected_seg = false;
    --shard.protected_frames;
    PushBack(shard, shard.lru, demoted);
    if (demotions_counter_ != nullptr) {
      demotions_counter_->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void BufferPool::PushUnpinned(Shard& shard, uint32_t frame_index) {
  Frame& frame = shard.frames[frame_index];
  // A pinned-while-over-cap protected frame demotes itself here, which
  // self-corrects the overflow Promote allows when every hot frame is
  // pinned.
  if (frame.protected_seg &&
      shard.protected_frames > shard.protected_cap) {
    frame.protected_seg = false;
    --shard.protected_frames;
    if (demotions_counter_ != nullptr) {
      demotions_counter_->fetch_add(1, std::memory_order_relaxed);
    }
  }
  PushBack(shard, frame.protected_seg ? shard.hot : shard.lru, frame_index);
}

Status BufferPool::ReadWithRetry(PageId page_id, Page* out) {
  Status status = disk_->ReadPage(page_id, out);
  for (size_t attempt = 0;
       status.IsTransient() && attempt < options_.max_transient_retries;
       ++attempt) {
    if (retries_counter_ != nullptr) {
      retries_counter_->fetch_add(1, std::memory_order_relaxed);
    }
    std::this_thread::yield();
    status = disk_->ReadPage(page_id, out);
  }
  return status;
}

Status BufferPool::WriteWithRetry(PageId page_id, const Page& page) {
  Status status = disk_->WritePage(page_id, page);
  for (size_t attempt = 0;
       status.IsTransient() && attempt < options_.max_transient_retries;
       ++attempt) {
    if (retries_counter_ != nullptr) {
      retries_counter_->fetch_add(1, std::memory_order_relaxed);
    }
    std::this_thread::yield();
    status = disk_->WritePage(page_id, page);
  }
  return status;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  Shard& shard = ShardFor(page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t index = FindFrame(shard, page_id);
  if (index == kNoFrame) {
    return Status::InvalidArgument("unpin of unbuffered page");
  }
  if (shard.frames[index].pin_count <= 0) {
    return Status::InvalidArgument("unpin of unpinned page");
  }
  UnpinLocked(shard, index, dirty);
  return Status::Ok();
}

void BufferPool::UnpinLocked(Shard& shard, uint32_t frame_index, bool dirty) {
  Frame& frame = shard.frames[frame_index];
  frame.dirty = frame.dirty || dirty;
  if (--frame.pin_count == 0) {
    PushUnpinned(shard, frame_index);
    shard.frame_unpinned.notify_all();
  }
}

Status BufferPool::FlushPage(PageId page_id) {
  Shard& shard = ShardFor(page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t index = FindFrame(shard, page_id);
  if (index == kNoFrame) return Status::Ok();
  Frame& frame = shard.frames[index];
  if (frame.dirty) {
    AIB_RETURN_IF_ERROR(WriteWithRetry(page_id, *frame.page));
    frame.dirty = false;
  }
  return Status::Ok();
}

Status BufferPool::FlushAll() {
  // Every shard latched (in shard order, the only multi-shard acquisition)
  // so the walk can visit the shards' tables in one ascending page id
  // sequence.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) locks.emplace_back(shard.mu);
  const size_t pages = disk_->PageCount();
  for (size_t page = 0; page < pages; ++page) {
    const PageId page_id = static_cast<PageId>(page);
    Shard& shard = ShardFor(page_id);
    const uint32_t index = FindFrame(shard, page_id);
    if (index == kNoFrame || !shard.frames[index].dirty) continue;
    AIB_RETURN_IF_ERROR(WriteWithRetry(page_id, *shard.frames[index].page));
    shard.frames[index].dirty = false;
  }
  return Status::Ok();
}

size_t BufferPool::CachedPages() const {
  size_t cached = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    cached += shard.cached;
  }
  return cached;
}

int64_t BufferPool::hits() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.hits;
  }
  return total;
}

int64_t BufferPool::misses() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.misses;
  }
  return total;
}

int64_t BufferPool::pin_waits() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.pin_waits;
  }
  return total;
}

}  // namespace aib
