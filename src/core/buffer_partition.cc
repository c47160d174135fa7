#include "core/buffer_partition.h"

#include <cassert>

#include "btree/cold_run.h"

namespace aib {

BufferPartition::BufferPartition(size_t id, IndexStructureKind kind)
    : id_(id), structure_(CreateIndexStructure(kind)) {}

BufferPartition::BufferPartition(size_t id, std::unique_ptr<ColdRun> run)
    : id_(id),
      structure_(std::move(run)),
      cold_run_(static_cast<ColdRun*>(structure_.get())) {}

std::unique_ptr<BufferPartition> BufferPartition::Demoted(
    const BufferPartition& hot) {
  auto run = std::make_unique<ColdRun>();
  run->Build(*hot.structure_);
  std::unique_ptr<BufferPartition> cold(
      new BufferPartition(hot.id_, std::move(run)));
  cold->page_entries_ = hot.page_entries_;
  return cold;
}

void BufferPartition::AddEntry(size_t page, Value value, const Rid& rid) {
  structure_->Insert(value, rid);
  ++page_entries_[page];
}

bool BufferPartition::RemoveEntry(size_t page, Value value, const Rid& rid) {
  if (!structure_->Remove(value, rid)) return false;
  auto it = page_entries_.find(page);
  if (it != page_entries_.end() && it->second > 0) --it->second;
  return true;
}

void BufferPartition::CoverPage(size_t page) {
  page_entries_.try_emplace(page, 0);
}

void BufferPartition::AbsorbOlder(const BufferPartition& older) {
  assert(older.cold_run_ != nullptr);
  if (cold_run_ != nullptr) {
    cold_run_->MergeOlder(*older.cold_run_);
  } else {
    // The hot sibling may have accumulated newer entries after the
    // demotion; appending would order the older epoch's postings last at
    // shared keys. Rebuild key-sorted instead, older epoch first.
    ColdRun merged;
    merged.Build(*structure_);  // key-sorted, stable over current postings
    merged.MergeOlder(*older.cold_run_);
    structure_->Load(merged.entries());
  }
  for (const auto& [page, count] : older.page_entries_) {
    page_entries_[page] += count;
  }
}

}  // namespace aib
