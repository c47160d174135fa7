#include "core/page_counters.h"

#include <cassert>
#include <utility>

namespace aib {

Status PageCounters::InitFromTable(const Table& table,
                                   const PartialIndex& index) {
  // Built into a local array so the (possibly slow, fault-exposed) heap
  // pass runs without holding the lock; swapped in atomically at the end.
  std::vector<uint32_t> fresh(table.PageCount(), 0);
  for (size_t page = 0; page < table.PageCount(); ++page) {
    uint32_t unindexed = 0;
    AIB_RETURN_IF_ERROR(table.heap().ForEachRecordOnPage(
        page, [&](const Rid&, std::span<const Value> ints) {
          if (!index.Covers(ints[index.column()])) ++unindexed;
        }));
    fresh[page] = unindexed;
  }
  std::unique_lock lock(mu_);
  counters_ = std::move(fresh);
  return Status::Ok();
}

void PageCounters::EnsureSize(size_t page_count) {
  std::unique_lock lock(mu_);
  if (counters_.size() < page_count) counters_.resize(page_count, 0);
}

void PageCounters::Increment(size_t page) {
  std::unique_lock lock(mu_);
  assert(page < counters_.size());
  ++counters_[page];
}

void PageCounters::Decrement(size_t page) {
  std::unique_lock lock(mu_);
  assert(page < counters_.size());
  assert(counters_[page] > 0);
  --counters_[page];
}

size_t PageCounters::FullyIndexedPages() const {
  std::shared_lock lock(mu_);
  size_t count = 0;
  for (uint32_t c : counters_) {
    if (c == 0) ++count;
  }
  return count;
}

uint64_t PageCounters::TotalUnindexed() const {
  std::shared_lock lock(mu_);
  uint64_t total = 0;
  for (uint32_t c : counters_) total += c;
  return total;
}

}  // namespace aib
