#ifndef AIB_CORE_PAGE_COUNTERS_H_
#define AIB_CORE_PAGE_COUNTERS_H_

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "index/partial_index.h"
#include "storage/table.h"

namespace aib {

/// The per-page counters C[p] of an Index Buffer (§III): the number of live
/// tuples in page p that are covered by *neither* the partial index *nor*
/// the Index Buffer. A page with C[p] == 0 is fully indexed and can be
/// skipped by a table scan.
///
/// Pages are addressed by their dense page number within the table (see
/// Table::PageNumberOf). Counters are initialized when the partial index is
/// created and maintained incrementally afterwards (Table I, adaptation
/// hooks, and MarkPageIndexed during indexing scans).
///
/// Concurrency: self-synchronized leaf object. An internal reader-writer
/// lock guards the counter array — Set/Increment/Decrement/EnsureSize take
/// it exclusively, reads take it shared — so C[p] can be read by covered
/// probes and mutated by concurrent DML writers (each on its own pages)
/// without the whole-space latch the pre-refactor design required. The
/// lock is a leaf in the latch hierarchy: no other latch is ever acquired
/// while holding it. A torn C[p] would silently un-skip (or worse, wrongly skip) pages
/// for every later scan, so every mutation goes through this lock.
class PageCounters {
 public:
  PageCounters() = default;

  /// C[p] = live tuples in p  -  tuples covered by `index`. One full pass
  /// over the table; the fresh array is swapped in under the lock.
  Status InitFromTable(const Table& table, const PartialIndex& index);

  /// Grows the array to `page_count`; new pages start at 0 (they are empty
  /// when allocated; inserts increment incrementally).
  void EnsureSize(size_t page_count);

  uint32_t Get(size_t page) const {
    std::shared_lock lock(mu_);
    return counters_[page];
  }
  void Set(size_t page, uint32_t value) {
    std::unique_lock lock(mu_);
    counters_[page] = value;
  }

  void Increment(size_t page);
  void Decrement(size_t page);

  size_t size() const {
    std::shared_lock lock(mu_);
    return counters_.size();
  }

  /// Number of pages with C[p] == 0 (skippable pages).
  size_t FullyIndexedPages() const;

  /// Sum of all counters (total unindexed tuples).
  uint64_t TotalUnindexed() const;

 private:
  mutable std::shared_mutex mu_;
  std::vector<uint32_t> counters_;
};

}  // namespace aib

#endif  // AIB_CORE_PAGE_COUNTERS_H_
