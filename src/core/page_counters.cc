#include "core/page_counters.h"

#include <cassert>
#include <utility>

namespace aib {

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
