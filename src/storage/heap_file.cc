#include "storage/heap_file.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace aib {

HeapFile::HeapFile(DiskManager* disk, BufferPool* pool, const Schema* schema,
                   HeapFileOptions options)
    : disk_(disk), pool_(pool), schema_(schema), options_(options) {}

bool HeapFile::UnderTupleCap(const Page& page) const {
  return options_.max_tuples_per_page == 0 ||
         page.live_count() < options_.max_tuples_per_page;
}

Result<size_t> HeapFile::PageIndexOf(PageId page_id) const {
  const uint32_t entry = page_numbers_.Load(page_id);
  if (entry == 0) {
    return Status::InvalidArgument("rid does not belong to this table");
  }
  return static_cast<size_t>(entry - 1);
}

void HeapFile::AppendPage(PageId page_id) {
  // Both entries before the count: a reader that sees the count, or the
  // PageId -> number entry, also sees the number -> PageId entry.
  const size_t index = page_count_.load(std::memory_order_relaxed);
  page_ids_.Store(index, page_id);
  page_numbers_.Store(page_id, static_cast<uint32_t>(index + 1));
  page_count_.store(index + 1, std::memory_order_release);
}

std::vector<PageId> HeapFile::page_ids() const {
  std::vector<PageId> ids(PageCount());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = PageIdAt(i);
  return ids;
}

uint32_t HeapFile::ListedRoom(const Page& page) const {
  return UnderTupleCap(page) ? page.ReclaimedSpace() : 0;
}

void HeapFile::SetRoom(size_t page_index, uint32_t room) {
  const size_t leaves = room_tree_.size() / 2;
  if (page_index >= leaves) {  // grow to a power of two, refill the leaves
    if (room == 0) return;
    const std::vector<uint32_t> old = std::exchange(
        room_tree_, std::vector<uint32_t>(2 * std::bit_ceil(page_index + 64)));
    listed_.store(true, std::memory_order_release);
    for (size_t i = 0; i < leaves; ++i) SetRoom(i, old[leaves + i]);
  }
  size_t i = room_tree_.size() / 2 + page_index;
  for (room_tree_[i] = room; i > 1; i /= 2) {
    room_tree_[i / 2] = std::max(room_tree_[i], room_tree_[i ^ 1]);
  }
}

void HeapFile::NoteRoom(size_t page_index, const Page& page) {
  const uint32_t room = ListedRoom(page);
  std::lock_guard<std::mutex> lock(free_mu_);
  SetRoom(page_index, room);
}

size_t HeapFile::InsertTarget(size_t record_bytes) const {
  const size_t need = std::max<size_t>(record_bytes, 1);  // listed pages
  if (listed_.load(std::memory_order_acquire)) {  // a load skips the lock
    std::lock_guard<std::mutex> lock(free_mu_);
    if (room_tree_[1] >= need) {
      const size_t leaves = room_tree_.size() / 2;
      size_t i = 1;
      while (i < leaves) i = room_tree_[2 * i] >= need ? 2 * i : 2 * i + 1;
      return i - leaves;
    }
  }
  const size_t pages = PageCount();
  return pages == 0 ? 0 : pages - 1;
}

Result<Rid> HeapFile::Insert(const Tuple& tuple, size_t target) {
  return InsertRecord(tuple.Serialize(*schema_), target);
}

Result<Rid> HeapFile::InsertRecord(std::span<const uint8_t> record,
                                   size_t target) {
  if (target == kAnyPage) target = InsertTarget(record.size());
  if (target < PageCount()) {
    const PageId page_id = PageIdAt(target);
    AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
    SlotId slot;
    const Status status = UnderTupleCap(*page)
                              ? page->Insert(record, &slot)
                              : Status::NoSpace("page at its tuple cap");
    // An insert never lists a page: only a listed one needs its room set.
    if (status.ok() && listed_.load(std::memory_order_acquire)) {
      const uint32_t room = ListedRoom(*page);
      std::lock_guard<std::mutex> lock(free_mu_);
      if (target < room_tree_.size() / 2 &&
          room_tree_[room_tree_.size() / 2 + target] > 0) {
        SetRoom(target, room);
      }
    }
    AIB_RETURN_IF_ERROR(pool_->UnpinPage(page_id, status.ok()));
    if (status.ok()) {
      tuple_count_.fetch_add(1, std::memory_order_relaxed);
      return Rid{page_id, slot};
    }
    if (!status.IsNoSpace()) return status;
  }

  const PageId page_id = disk_->AllocatePage();
  AppendPage(page_id);
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  SlotId slot;
  const Status status = page->Insert(record, &slot);
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(page_id, status.ok()));
  AIB_RETURN_IF_ERROR(status);
  tuple_count_.fetch_add(1, std::memory_order_relaxed);
  return Rid{page_id, slot};
}

Result<Tuple> HeapFile::Get(const Rid& rid) const {
  Result<Tuple> tuple = Status::Ok();
  AIB_RETURN_IF_ERROR(pool_->VisitPage(rid.page_id, [&](const Page& page) {
    std::span<const uint8_t> record;
    const Status read = page.Read(rid.slot, &record);
    tuple = read.ok() ? Tuple::Deserialize(*schema_, record)
                      : Result<Tuple>(read);
  }));
  return tuple;
}

Status HeapFile::FetchLive(std::span<const Rid> rids,
                           std::span<const uint32_t> sel,
                           const std::vector<ColumnId>& columns,
                           std::vector<std::vector<Value>>* lanes) const {
  if (!columns.empty() &&
      (lanes == nullptr || lanes->size() != columns.size())) {
    return Status::InvalidArgument("one lane per fetched column required");
  }
  for (ColumnId c : columns) {
    if (c >= schema_->num_columns() ||
        schema_->column(c).type != ColumnType::kInt32) {
      return Status::InvalidArgument("fetch of non-int column");
    }
  }
  // Decoded int columns of the current record, indexed by column id; only
  // needed (and only allocated) when lanes are requested.
  std::vector<Value> decoded(columns.empty() ? 0 : schema_->num_columns());
  // Rids are hinted a window ahead of the visits, so the misses of a small
  // answer's pages overlap (BufferPool::Prefetch).
  constexpr size_t kHintWindow = 16;
  size_t hinted = 0;
  size_t next = 0;
  Status status = Status::Ok();
  while (next < sel.size() && status.ok()) {
    if (next >= hinted) {
      hinted = std::min(sel.size(), next + kHintWindow);
      pool_->Prefetch(rids, sel.subspan(next, hinted - next));
    }
    // One visit per run of consecutive rids on a page.
    const PageId page_id = rids[sel[next]].page_id;
    AIB_RETURN_IF_ERROR(pool_->VisitPage(page_id, [&](const Page& page) {
      for (; next < sel.size() && rids[sel[next]].page_id == page_id;
           ++next) {
        std::span<const uint8_t> record;
        status = page.Read(rids[sel[next]].slot, &record);
        if (status.ok()) {
          status = Tuple::CheckRecord(*schema_, record, decoded);
        }
        if (!status.ok()) return;
        for (size_t j = 0; j < columns.size(); ++j) {
          (*lanes)[j].push_back(decoded[columns[j]]);
        }
      }
    }));
  }
  return status;
}

Status HeapFile::Delete(const Rid& rid) {
  AIB_ASSIGN_OR_RETURN(const size_t page_index, PageIndexOf(rid.page_id));
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
  const Status status = page->Delete(rid.slot);
  if (status.ok()) NoteRoom(page_index, *page);
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, status.ok()));
  AIB_RETURN_IF_ERROR(status);
  tuple_count_.fetch_sub(1, std::memory_order_relaxed);
  return Status::Ok();
}

Result<Rid> HeapFile::Update(const Rid& rid, const Tuple& tuple,
                             size_t target) {
  const std::vector<uint8_t> record = tuple.Serialize(*schema_);
  AIB_ASSIGN_OR_RETURN(const size_t page_index, PageIndexOf(rid.page_id));
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
  const Status in_place = page->UpdateInPlace(rid.slot, record);
  if (in_place.ok()) {
    NoteRoom(page_index, *page);
    AIB_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, true));
    return rid;
  }
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, false));
  if (!in_place.IsNoSpace()) return in_place;

  // Record grew beyond its slot: relocate, new image first, so it lands on
  // `target` and a failed insert leaves the tuple in place.
  AIB_ASSIGN_OR_RETURN(const Rid new_rid, InsertRecord(record, target));
  AIB_RETURN_IF_ERROR(Delete(rid));
  return new_rid;
}

Result<uint16_t> HeapFile::LiveTuplesOnPage(size_t page_index) const {
  const PageId page_id = PageIdAt(page_index);
  if (page_id == kInvalidPageId) {
    return Status::InvalidArgument("page index out of range");
  }
  uint16_t live = 0;
  AIB_RETURN_IF_ERROR(pool_->VisitPage(
      page_id, [&](const Page& page) { live = page.live_count(); }));
  return live;
}

namespace {

/// Calls `on_record(rid, record)` for each live record of `page_id`, in
/// slot order, until it returns a non-OK status; pins the page meanwhile.
template <typename OnRecord>
Status WalkPage(BufferPool* pool, PageId page_id, OnRecord&& on_record) {
  if (page_id == kInvalidPageId) {
    return Status::InvalidArgument("page index out of range");
  }
  AIB_ASSIGN_OR_RETURN(Page * page, pool->FetchPage(page_id));
  Status status = Status::Ok();
  for (SlotId slot = 0; slot < page->slot_count() && status.ok(); ++slot) {
    std::span<const uint8_t> record;
    if (!page->Read(slot, &record).ok()) continue;  // tombstone
    status = on_record(Rid{page_id, slot}, record);
  }
  AIB_RETURN_IF_ERROR(pool->UnpinPage(page_id, false));
  return status;
}

}  // namespace

Status HeapFile::GatherColumnsOnPage(
    size_t page_index, const std::vector<ColumnId>& columns,
    std::vector<Rid>* rids, std::vector<std::vector<Value>>* lanes) const {
  if (lanes->size() != columns.size()) {
    return Status::InvalidArgument("one lane per gathered column required");
  }
  for (ColumnId c : columns) {
    if (c >= schema_->num_columns() ||
        schema_->column(c).type != ColumnType::kInt32) {
      return Status::InvalidArgument("gather of non-int column");
    }
  }
  // Each whole record is checked, so a scan fails a malformed one as Get
  // does. Values land in a reused scratch slot per schema column, then fan
  // out to the lanes (a conjunction may repeat a column).
  std::vector<Value> decoded(schema_->num_columns(), 0);
  const auto gather = [&](const Rid& rid, std::span<const uint8_t> record) {
    AIB_RETURN_IF_ERROR(Tuple::CheckRecord(*schema_, record, decoded));
    rids->push_back(rid);
    for (size_t i = 0; i < columns.size(); ++i) {
      (*lanes)[i].push_back(decoded[columns[i]]);
    }
    return Status::Ok();
  };
  return WalkPage(pool_, PageIdAt(page_index), gather);
}

Status HeapFile::ForEachTupleOnPage(
    size_t page_index,
    const std::function<void(const Rid&, const Tuple&)>& fn) const {
  return WalkPage(pool_, PageIdAt(page_index),
                  [&](const Rid& rid, std::span<const uint8_t> record) {
                    Result<Tuple> tuple = Tuple::Deserialize(*schema_, record);
                    if (tuple.ok()) fn(rid, tuple.value());
                    return tuple.status();
                  });
}

Status HeapFile::ForEachRecordOnPage(
    size_t page_index,
    const std::function<void(const Rid&, std::span<const Value>)>& fn) const {
  std::vector<Value> ints(schema_->num_columns(), 0);
  return WalkPage(pool_, PageIdAt(page_index),
                  [&](const Rid& rid, std::span<const uint8_t> record) {
                    const Status status =
                        Tuple::CheckRecord(*schema_, record, ints);
                    if (status.ok()) fn(rid, ints);
                    return status;
                  });
}

Status HeapFile::ForEachTuple(
    const std::function<void(const Rid&, const Tuple&)>& fn) const {
  const size_t pages = PageCount();
  for (size_t i = 0; i < pages; ++i) {
    AIB_RETURN_IF_ERROR(ForEachTupleOnPage(i, fn));
  }
  return Status::Ok();
}

void HeapFile::RestoreState(const std::vector<PageId>& page_ids,
                            size_t tuple_count) {
  page_ids_.Clear();
  page_numbers_.Clear();
  page_count_.store(0, std::memory_order_relaxed);
  room_tree_.clear();
  listed_.store(false, std::memory_order_relaxed);
  for (const PageId page_id : page_ids) {
    const size_t page_index = page_count_.load(std::memory_order_relaxed);
    AppendPage(page_id);
    NoteRoom(page_index, disk_->PeekPage(page_id));  // derived; no I/O
  }
  tuple_count_.store(tuple_count, std::memory_order_relaxed);
}

}  // namespace aib
