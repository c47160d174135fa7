#include "storage/heap_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>

namespace aib {

HeapFile::HeapFile(DiskManager* disk, BufferPool* pool, const Schema* schema,
                   HeapFileOptions options)
    : disk_(disk), pool_(pool), schema_(schema), options_(options) {}

bool HeapFile::UnderTupleCap(const Page& page) const {
  return options_.max_tuples_per_page == 0 ||
         page.live_count() < options_.max_tuples_per_page;
}

PageId HeapFile::PageIdAt(size_t page_index) const {
  std::shared_lock lock(dir_mu_);
  return page_index < page_ids_.size() ? page_ids_[page_index]
                                       : kInvalidPageId;
}

Result<size_t> HeapFile::PageIndexOf(PageId page_id) const {
  // Page ids are allocated densely per disk manager; within one heap file
  // they are also contiguous in allocation order, so binary search suffices.
  std::shared_lock lock(dir_mu_);
  auto it = std::lower_bound(page_ids_.begin(), page_ids_.end(), page_id);
  if (it == page_ids_.end() || *it != page_id) {
    return Status::InvalidArgument("rid does not belong to this table");
  }
  return static_cast<size_t>(it - page_ids_.begin());
}

Result<Rid> HeapFile::Insert(const Tuple& tuple) {
  const std::vector<uint8_t> record = tuple.Serialize(*schema_);

  // Try the tail page first; heap order is append order. Only one insert
  // runs at a time (Table::append_mutex()), so the tail cannot change
  // between the read and the append below.
  PageId tail = kInvalidPageId;
  {
    std::shared_lock lock(dir_mu_);
    if (!page_ids_.empty()) tail = page_ids_.back();
  }
  if (tail != kInvalidPageId) {
    AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(tail));
    if (UnderTupleCap(*page) && record.size() <= page->FreeSpace()) {
      SlotId slot;
      const Status status = page->Insert(record, &slot);
      AIB_RETURN_IF_ERROR(pool_->UnpinPage(tail, status.ok()));
      AIB_RETURN_IF_ERROR(status);
      tuple_count_.fetch_add(1, std::memory_order_relaxed);
      return Rid{tail, slot};
    }
    AIB_RETURN_IF_ERROR(pool_->UnpinPage(tail, false));
  }

  const PageId page_id = disk_->AllocatePage();
  {
    std::unique_lock lock(dir_mu_);
    page_ids_.push_back(page_id);
    page_count_.store(page_ids_.size(), std::memory_order_release);
  }
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  SlotId slot;
  const Status status = page->Insert(record, &slot);
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(page_id, status.ok()));
  AIB_RETURN_IF_ERROR(status);
  tuple_count_.fetch_add(1, std::memory_order_relaxed);
  return Rid{page_id, slot};
}

Result<Tuple> HeapFile::Get(const Rid& rid) const {
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
  std::span<const uint8_t> record;
  const Status read_status = page->Read(rid.slot, &record);
  if (!read_status.ok()) {
    AIB_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, false));
    return read_status;
  }
  Result<Tuple> tuple = Tuple::Deserialize(*schema_, record);
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, false));
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
  PageId pinned = kInvalidPageId;
  const Page* page = nullptr;
  Status status = Status::Ok();
  for (const uint32_t index : sel) {
    const Rid& rid = rids[index];
    if (rid.page_id != pinned) {
      if (page != nullptr) {
        AIB_RETURN_IF_ERROR(pool_->UnpinPage(pinned, false));
        page = nullptr;
      }
      AIB_ASSIGN_OR_RETURN(page, pool_->FetchPage(rid.page_id));
      pinned = rid.page_id;
    }
    std::span<const uint8_t> record;
    status = page->Read(rid.slot, &record);
    if (status.ok()) status = Tuple::CheckRecord(*schema_, record, decoded);
    if (!status.ok()) break;
    for (size_t j = 0; j < columns.size(); ++j) {
      (*lanes)[j].push_back(decoded[columns[j]]);
    }
  }
  if (page != nullptr) AIB_RETURN_IF_ERROR(pool_->UnpinPage(pinned, false));
  return status;
}

Status HeapFile::Delete(const Rid& rid) {
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
  const Status status = page->Delete(rid.slot);
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, status.ok()));
  AIB_RETURN_IF_ERROR(status);
  tuple_count_.fetch_sub(1, std::memory_order_relaxed);
  return Status::Ok();
}

Result<Rid> HeapFile::Update(const Rid& rid, const Tuple& tuple) {
  const std::vector<uint8_t> record = tuple.Serialize(*schema_);
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
  const Status in_place = page->UpdateInPlace(rid.slot, record);
  if (in_place.ok()) {
    AIB_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, true));
    return rid;
  }
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, false));
  if (!in_place.IsNoSpace()) return in_place;

  // Record grew beyond its slot: relocate.
  AIB_RETURN_IF_ERROR(Delete(rid));
  return Insert(tuple);
}

Result<uint16_t> HeapFile::LiveTuplesOnPage(size_t page_index) const {
  const PageId page_id = PageIdAt(page_index);
  if (page_id == kInvalidPageId) {
    return Status::InvalidArgument("page index out of range");
  }
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  const uint16_t live = page->live_count();
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(page_id, false));
  return live;
}

Status HeapFile::GatherColumnsOnPage(
    size_t page_index, const std::vector<ColumnId>& columns,
    std::vector<Rid>* rids, std::vector<std::vector<Value>>* lanes) const {
  const PageId page_id = PageIdAt(page_index);
  if (page_id == kInvalidPageId) {
    return Status::InvalidArgument("page index out of range");
  }
  if (lanes->size() != columns.size()) {
    return Status::InvalidArgument("one lane per gathered column required");
  }
  ColumnId max_col = 0;
  for (ColumnId c : columns) {
    if (c >= schema_->num_columns() ||
        schema_->column(c).type != ColumnType::kInt32) {
      return Status::InvalidArgument("gather of non-int column");
    }
    max_col = std::max(max_col, c);
  }
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  Status status = Status::Ok();
  // Per-tuple decode of the record prefix [0, max_col]; values land in a
  // reused scratch slot per schema column, then fan out to the lanes (a
  // column may back several lanes when a conjunction repeats it).
  std::vector<Value> decoded(static_cast<size_t>(max_col) + 1, 0);
  for (SlotId slot = 0; slot < page->slot_count(); ++slot) {
    std::span<const uint8_t> record;
    if (!page->Read(slot, &record).ok()) continue;  // tombstone
    size_t pos = 0;
    bool truncated = false;
    for (ColumnId c = 0; c <= max_col && !truncated; ++c) {
      if (schema_->column(c).type == ColumnType::kInt32) {
        if (pos + sizeof(Value) > record.size()) {
          truncated = true;
          break;
        }
        std::memcpy(&decoded[c], record.data() + pos, sizeof(Value));
        pos += sizeof(Value);
      } else {
        if (pos + sizeof(uint16_t) > record.size()) {
          truncated = true;
          break;
        }
        uint16_t len;
        std::memcpy(&len, record.data() + pos, sizeof(len));
        pos += sizeof(len) + len;
        if (pos > record.size()) truncated = true;
      }
    }
    if (truncated) {
      status = Status::Corruption("tuple truncated in column gather");
      break;
    }
    rids->push_back(Rid{page_id, slot});
    for (size_t i = 0; i < columns.size(); ++i) {
      (*lanes)[i].push_back(decoded[columns[i]]);
    }
  }
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(page_id, false));
  return status;
}

Status HeapFile::ForEachTupleOnPage(
    size_t page_index,
    const std::function<void(const Rid&, const Tuple&)>& fn) const {
  const PageId page_id = PageIdAt(page_index);
  if (page_id == kInvalidPageId) {
    return Status::InvalidArgument("page index out of range");
  }
  AIB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  Status status = Status::Ok();
  for (SlotId slot = 0; slot < page->slot_count(); ++slot) {
    std::span<const uint8_t> record;
    if (!page->Read(slot, &record).ok()) continue;  // tombstone
    Result<Tuple> tuple = Tuple::Deserialize(*schema_, record);
    if (!tuple.ok()) {
      status = tuple.status();
      break;
    }
    fn(Rid{page_id, slot}, tuple.value());
  }
  AIB_RETURN_IF_ERROR(pool_->UnpinPage(page_id, false));
  return status;
}

Status HeapFile::ForEachTuple(
    const std::function<void(const Rid&, const Tuple&)>& fn) const {
  const size_t pages = PageCount();
  for (size_t i = 0; i < pages; ++i) {
    AIB_RETURN_IF_ERROR(ForEachTupleOnPage(i, fn));
  }
  return Status::Ok();
}

void HeapFile::RestoreState(std::vector<PageId> page_ids,
                            size_t tuple_count) {
  std::unique_lock lock(dir_mu_);
  page_ids_ = std::move(page_ids);
  page_count_.store(page_ids_.size(), std::memory_order_release);
  tuple_count_.store(tuple_count, std::memory_order_relaxed);
}

}  // namespace aib
