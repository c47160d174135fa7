#ifndef AIB_STORAGE_COLD_SPILL_H_
#define AIB_STORAGE_COLD_SPILL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/disk_manager.h"

namespace aib {

/// Handle to a spilled cold run: the disk pages holding its serialized
/// bytes plus the exact byte length (the last page is zero-padded).
struct SpillToken {
  std::vector<PageId> pages;
  uint64_t size = 0;

  bool Valid() const { return size > 0 || !pages.empty(); }
};

/// Disk-backed overflow for the cold tier: when in-memory cold runs exceed
/// their byte budget, the coldest run's serialized bytes are written out
/// through the DiskManager and the memory is released; a re-access reads
/// the pages back and rebuilds the run.
///
/// Spill I/O is *staging*, not query work: it runs under
/// FaultInjector::ScopedSuspend, so chaos soaks measure fault handling of
/// the query path rather than of background tiering, and the
/// pages_read/pages_written counters still account the transfers for the
/// benches.
///
/// Freed spill extents go on a free list and are reused by later spills —
/// the simulated disk never shrinks, so without reuse an eviction-thrash
/// workload would grow it without bound.
///
/// Thread-safe; callers already serialize per-buffer tier transitions, but
/// distinct buffers may spill concurrently.
class ColdSpillStore {
 public:
  explicit ColdSpillStore(DiskManager* disk, Metrics* metrics = nullptr);

  /// Writes `bytes` to freshly allocated (or recycled) pages.
  Result<SpillToken> Spill(const std::string& bytes);

  /// Reads back the exact bytes of a prior Spill. The token stays valid
  /// (unspilling for a probe does not free the extent; call Free when the
  /// run is promoted or dropped).
  Result<std::string> Load(const SpillToken& token);

  /// Returns the token's pages to the free list.
  void Free(SpillToken* token);

  /// Pages currently parked on the free list (test/introspection).
  size_t FreePageCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_pages_.size();
  }

  DiskManager* disk() const { return disk_; }

 private:
  PageId TakePage();

  DiskManager* disk_;
  Metrics* metrics_;  // not owned; may be null
  mutable std::mutex mu_;
  std::vector<PageId> free_pages_;
};

}  // namespace aib

#endif  // AIB_STORAGE_COLD_SPILL_H_
