#ifndef AIB_STORAGE_DISK_MANAGER_H_
#define AIB_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/fault_injector.h"
#include "storage/page.h"

namespace aib {

/// Simulated disk. Holds the authoritative copy of every page and accounts
/// each read/write in a Metrics registry, which is what the cost model and
/// the benches consume in place of the paper's SSD wall-clock I/O.
///
/// The paper's testbed performed real I/O against a 220 MB table on an SSD;
/// here the "disk" is a heap-allocated page array and I/O cost is charged
/// per page transfer. The figures' shapes depend on how many pages a scan
/// touches, which this accounting preserves exactly. A read costs no
/// latency, so there is no wait for readahead to hide and the engine has
/// none: every page is read on demand by BufferPool::FetchPage.
///
/// Thread-safe: a reader-writer latch lets concurrent ReadPage calls — the
/// hot path of morsel-parallel scans — copy pages in parallel (the page
/// array is append-only and page contents are immutable between writes);
/// allocation and writes serialize exclusively. Metric counters are cached
/// atomic handles, so a parallel read costs no registry lookup. PeekPage is
/// excluded — it is a test-only backdoor and must not race with writers.
class DiskManager {
 public:
  explicit DiskManager(uint32_t page_size = kDefaultPageSize,
                       Metrics* metrics = nullptr);

  uint32_t page_size() const { return page_size_; }

  /// Number of allocated pages; page ids are dense in [0, PageCount()).
  size_t PageCount() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pages_.size();
  }

  /// Allocates a fresh zeroed page and returns its id.
  PageId AllocatePage();

  /// Copies page `page_id` into `out`. Charges one page read.
  Status ReadPage(PageId page_id, Page* out);

  /// Copies `page` as the authoritative content of `page_id`. Charges one
  /// page write.
  Status WritePage(PageId page_id, const Page& page);

  /// Restores raw page bytes without I/O accounting (snapshot load only).
  Status RestorePage(PageId page_id, std::span<const uint8_t> bytes);

  /// Direct const view of the authoritative page, charging nothing. Used by
  /// tests, integrity checks and the quiesced snapshot restore only — the
  /// engine goes through the buffer pool.
  const Page& PeekPage(PageId page_id) const { return *pages_[page_id]; }

  // --- Fault injection ------------------------------------------------------

  /// The programmable fault source every ReadPage/WritePage consults. Tests
  /// and the shell arm it with a seed and per-operation rates; chaos runs
  /// replay bit-identically for a given seed.
  FaultInjector& fault_injector() { return injector_; }

 private:
  uint32_t page_size_;
  Metrics* metrics_;  // not owned; may be null
  /// Cached counter handles (null when metrics_ is null): one relaxed
  /// atomic add per transfer instead of a name lookup.
  std::atomic<int64_t>* pages_read_ = nullptr;
  std::atomic<int64_t>* pages_written_ = nullptr;
  FaultInjector injector_;
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace aib

#endif  // AIB_STORAGE_DISK_MANAGER_H_
