#ifndef AIB_STORAGE_HEAP_FILE_H_
#define AIB_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <functional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/buffer_pool.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace aib {

struct HeapFileOptions {
  /// Caps live tuples per page in addition to the byte bound. 0 = byte
  /// bound only. The Fig. 3 experiment uses this to realize exact
  /// tuples-per-page scenarios {2, 5, 10, 20, 50, 100}.
  uint16_t max_tuples_per_page = 0;
};

/// Unordered tuple file over slotted pages. Inserts append in arrival order
/// (physical order == insertion order), which the correlation experiment
/// (Fig. 3) relies on. Slot ids are stable: deletes tombstone, updates that
/// no longer fit relocate the tuple and return the new Rid.
///
/// Latch discipline (partition-granular concurrency): the page *directory*
/// (`page_ids_`) is guarded by an internal reader-writer lock — Insert's
/// grow path appends under it exclusively, every page-number-to-PageId
/// translation reads under it shared — and the tuple count is a relaxed
/// atomic, so the directory stays consistent while readers and writers of
/// *different* pages run concurrently. Page *contents* are not protected
/// here: callers serialize per-page access through the owning Table's heap
/// stripe latches (Table::page_latches(), stripe = page number % stripes) —
/// scans hold every stripe shared, DML holds the stripes of the pages it
/// mutates exclusively, and Insert additionally serializes on
/// Table::append_mutex() so only one statement grows the tail at a time.
/// Callers bypassing the executor (loads, tests, tools) must be
/// single-threaded, as before.
class HeapFile {
 public:
  HeapFile(DiskManager* disk, BufferPool* pool, const Schema* schema,
           HeapFileOptions options = {});

  const Schema& schema() const { return *schema_; }

  /// Appends `tuple`; allocates a new page when the tail page is full.
  Result<Rid> Insert(const Tuple& tuple);

  /// Reads the tuple at `rid`. NotFound for tombstoned slots.
  Result<Tuple> Get(const Rid& rid) const;

  /// Batch liveness fetch, the read path of index-probe answers: visits
  /// `rids[i]` for each i of `sel`, in that order, pinning each page once
  /// per run of consecutive rids on it, and checks that every slot holds a
  /// live, well-formed record. The first failing rid ends the walk with
  /// exactly Get's status for it: NotFound for a tombstoned or
  /// out-of-range slot, Corruption for a malformed record. For each
  /// kInt32 `columns[j]` the record's value is appended to `(*lanes)[j]`,
  /// one entry per visited rid (`lanes` may be null when `columns` is
  /// empty). Builds no Tuple and copies no payload.
  Status FetchLive(std::span<const Rid> rids, std::span<const uint32_t> sel,
                   const std::vector<ColumnId>& columns,
                   std::vector<std::vector<Value>>* lanes) const;

  /// Tombstones the tuple at `rid`.
  Status Delete(const Rid& rid);

  /// Replaces the tuple at `rid`. Rewrites in place when the new record
  /// fits the old slot; otherwise deletes and re-inserts, returning the
  /// (possibly different) new Rid.
  Result<Rid> Update(const Rid& rid, const Tuple& tuple);

  /// Number of allocated data pages.
  size_t PageCount() const {
    return page_count_.load(std::memory_order_acquire);
  }

  /// Page ids of this file, in physical order. Quiesced contexts only
  /// (snapshots, single-threaded test setup): the reference is not
  /// protected against a concurrent Insert growing the directory.
  const std::vector<PageId>& page_ids() const { return page_ids_; }

  /// Dense page number of `page_id` within this file; InvalidArgument if
  /// the page does not belong to it. Pure directory binary search — no
  /// page fetch, no fault-injector draws.
  Result<size_t> PageIndexOf(PageId page_id) const;

  /// Live tuples on the idx-th page of this file.
  Result<uint16_t> LiveTuplesOnPage(size_t page_index) const;

  /// Total live tuples in the file.
  size_t TupleCount() const {
    return tuple_count_.load(std::memory_order_relaxed);
  }

  /// Invokes `fn(rid, tuple)` for each live tuple on the idx-th page, in
  /// slot order. The page is pinned for the duration of the call.
  Status ForEachTupleOnPage(
      size_t page_index,
      const std::function<void(const Rid&, const Tuple&)>& fn) const;

  /// Columnar gather: appends the rid and the requested kInt32 column
  /// values of every live tuple on the idx-th page to `rids` and
  /// `(*lanes)[i]` (parallel vectors, slot order). Decodes only the record
  /// prefix up to the last requested column — no Tuple materialization, no
  /// per-tuple allocation — which is what makes the batch scan path cheaper
  /// than the per-tuple iteration. `lanes` must have one entry per
  /// requested column.
  Status GatherColumnsOnPage(size_t page_index,
                             const std::vector<ColumnId>& columns,
                             std::vector<Rid>* rids,
                             std::vector<std::vector<Value>>* lanes) const;

  /// Full-file scan in physical order.
  Status ForEachTuple(
      const std::function<void(const Rid&, const Tuple&)>& fn) const;

  /// PageId of the idx-th page, or kInvalidPageId when out of range. Pure
  /// directory lookup (no page fetch); ids are ascending in physical
  /// order.
  PageId PageIdAt(size_t page_index) const;

  /// Restores the file's bookkeeping after a snapshot load: the page ids
  /// (ascending physical order) and the live tuple count. The pages
  /// themselves must already be present in the disk manager.
  void RestoreState(std::vector<PageId> page_ids, size_t tuple_count);

 private:
  /// True if `page` can take one more tuple under max_tuples_per_page.
  bool UnderTupleCap(const Page& page) const;

  DiskManager* disk_;
  BufferPool* pool_;
  const Schema* schema_;
  HeapFileOptions options_;

  /// Guards page_ids_ (the directory), not page contents.
  mutable std::shared_mutex dir_mu_;
  std::vector<PageId> page_ids_;
  std::atomic<size_t> page_count_{0};
  std::atomic<size_t> tuple_count_{0};
};

}  // namespace aib

#endif  // AIB_STORAGE_HEAP_FILE_H_
