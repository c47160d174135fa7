#ifndef AIB_STORAGE_HEAP_FILE_H_
#define AIB_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "common/grow_only_array.h"
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

/// Unordered tuple file over slotted pages. Slot ids are stable: deletes
/// tombstone, updates that no longer fit relocate the tuple and return the
/// new Rid. An insert takes the lowest page of the free-space list with
/// room for it (the pages a delete or a shrink left room on), else the
/// tail. A bulk load lists no page, so it appends in arrival order (physical
/// order == insertion order), which the correlation experiment (Fig. 3)
/// relies on.
///
/// Latch discipline (partition-granular concurrency): the page *directory*
/// only grows, and it is read without a lock in both directions — page
/// number to PageId and PageId to page number, each O(1) — while Insert
/// appends to it (see GrowOnlyArray: a page's two entries are published
/// before the page count that covers it). The tuple count is a relaxed
/// atomic. Page *contents* are not protected
/// here: callers serialize per-page access through the owning Table's heap
/// stripe latches (Table::page_latches(), stripe = page number % stripes) —
/// scans hold every stripe shared, DML holds the stripes of the pages it
/// mutates exclusively, and Insert/Update additionally serialize on
/// Table::append_mutex() so only one statement takes room at a time. The
/// free-space list has its own leaf mutex, so a Delete needs no other.
/// Callers bypassing the executor (loads, tests, tools) must be
/// single-threaded, as before.
class HeapFile {
 public:
  HeapFile(DiskManager* disk, BufferPool* pool, const Schema* schema,
           HeapFileOptions options = {});

  const Schema& schema() const { return *schema_; }

  static constexpr size_t kAnyPage = SIZE_MAX;  // ask InsertTarget now

  /// Inserts `tuple` on the `target`-th page (an InsertTarget answer), or
  /// on a fresh tail page when that page cannot take it.
  Result<Rid> Insert(const Tuple& tuple, size_t target = kAnyPage);

  /// The page number an insert of a `record_bytes` record goes to: the
  /// lowest listed page with room for it, else the tail. O(log pages). Only
  /// inserts and updates take room, so the answer stays valid while the
  /// caller holds Table::append_mutex().
  size_t InsertTarget(size_t record_bytes) const;

  /// Reads the tuple at `rid`. NotFound for tombstoned slots.
  Result<Tuple> Get(const Rid& rid) const;

  /// Batch liveness fetch, the read path of index-probe answers: visits
  /// `rids[i]` for each i of `sel`, in that order, with one pool visit
  /// (BufferPool::VisitPage) per run of consecutive rids on a page, the
  /// pages prefetched as a group first, and checks that every slot holds
  /// a live, well-formed record. The first failing rid ends the walk with
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
  /// fits the old slot; otherwise inserts the new image as Insert does (on
  /// `target`), then tombstones the old slot, returning the new Rid.
  Result<Rid> Update(const Rid& rid, const Tuple& tuple,
                     size_t target = kAnyPage);

  /// Number of allocated data pages.
  size_t PageCount() const {
    return page_count_.load(std::memory_order_acquire);
  }

  /// Page ids of this file, in physical order (a copy of the directory).
  std::vector<PageId> page_ids() const;

  /// Dense page number of `page_id` within this file; InvalidArgument if
  /// the page does not belong to it. One lock-free directory read — no
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
  /// `(*lanes)[i]` (parallel vectors, slot order). Checks each whole record,
  /// so a malformed record fails with Get's (Tuple::Deserialize's) status,
  /// but builds no Tuple and allocates nothing per tuple, which is
  /// what makes the batch scan path cheaper than the per-tuple iteration.
  /// `lanes` must have one entry per requested column.
  Status GatherColumnsOnPage(size_t page_index,
                             const std::vector<ColumnId>& columns,
                             std::vector<Rid>* rids,
                             std::vector<std::vector<Value>>* lanes) const;

  /// Full-file scan in physical order.
  Status ForEachTuple(
      const std::function<void(const Rid&, const Tuple&)>& fn) const;

  /// PageId of the idx-th page, or kInvalidPageId when out of range. One
  /// lock-free directory read (no page fetch); ids are ascending in
  /// physical order.
  PageId PageIdAt(size_t page_index) const {
    return page_index < PageCount()
               ? static_cast<PageId>(page_ids_.Load(page_index))
               : kInvalidPageId;
  }

  /// Restores the file's bookkeeping after a snapshot load: the page ids
  /// (ascending physical order) and the live tuple count. The pages
  /// themselves must already be present in the disk manager; the
  /// free-space list is rebuilt from them. Quiesced callers only.
  void RestoreState(const std::vector<PageId>& page_ids, size_t tuple_count);

 private:
  /// True if `page` can take one more tuple under max_tuples_per_page.
  bool UnderTupleCap(const Page& page) const;

  /// Appends `page_id` to the directory. Single writer (see class comment).
  void AppendPage(PageId page_id);

  Result<Rid> InsertRecord(std::span<const uint8_t> record, size_t target);

  /// The room the free-space list holds for `page`: Page::FreeSpace if the
  /// page has a tombstone or dead bytes and is under its tuple cap, else 0.
  /// A function of the page alone, so a restored heap lists what it did.
  uint32_t ListedRoom(const Page& page) const;
  void NoteRoom(size_t page_index, const Page& page);
  void SetRoom(size_t page_index, uint32_t room);  // free_mu_ held

  DiskManager* disk_;
  BufferPool* pool_;
  const Schema* schema_;
  HeapFileOptions options_;

  /// The directory: page number -> PageId, and PageId -> page number + 1
  /// (0 for pages of other files). page_count_ covers published entries.
  GrowOnlyArray page_ids_;
  GrowOnlyArray page_numbers_;
  std::atomic<size_t> page_count_{0};
  std::atomic<size_t> tuple_count_{0};

  /// The free-space list: a max tree whose leaves (the second half) hold
  /// each page's ListedRoom; empty until a page is listed (listed_).
  mutable std::mutex free_mu_;
  std::vector<uint32_t> room_tree_;
  std::atomic<bool> listed_{false};
};

}  // namespace aib

#endif  // AIB_STORAGE_HEAP_FILE_H_
