#ifndef AIB_CORE_DEGRADATION_H_
#define AIB_CORE_DEGRADATION_H_

#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/types.h"

namespace aib {

class PartialIndex;

/// Book-keeper for graceful degradation (ISSUE 3 / §1 of the paper): because
/// the Index Buffer is a recovery-free scratch-pad, any partition may be
/// dropped at any time without losing correctness. When corruption or
/// repeated faults touch a buffered page, the degradation path drops that
/// page's partition and records the page here as *quarantined*:
/// SelectPagesForBuffer excludes quarantined pages from Algorithm 2's
/// candidates, so they are never skipped and never re-indexed — until a
/// subsequent indexing scan completes cleanly over the whole table, proving
/// the pages readable again, at which point the quarantine is lifted and the
/// ordinary adaptive machinery rebuilds the dropped partitions on demand.
///
/// Concurrency: self-synchronized leaf object (an internal mutex around the
/// quarantine set). With the space latch demoted to structural duty,
/// quarantine checks from plan selection and covered probes run
/// concurrently with quarantine/repair mutations; the mutex is a leaf in
/// the latch hierarchy — no other latch is acquired while it is held.
class DegradationManager {
 public:
  explicit DegradationManager(Metrics* metrics = nullptr)
      : metrics_(metrics) {}

  /// Records one quarantine. Idempotent per (index, page); every call
  /// counts in index_buffer.partitions_quarantined.
  void Quarantine(const PartialIndex* index, size_t page);

  bool IsQuarantined(const PartialIndex* index, size_t page) const;

  /// Lifts the quarantine for `index`: called after an indexing table scan
  /// covered every C[p] > 0 page without a fault, which demonstrates the
  /// previously failing pages read cleanly again.
  void OnCleanScan(const PartialIndex* index);

 private:
  Metrics* metrics_;  // not owned; may be null
  mutable std::mutex mu_;
  std::unordered_map<const PartialIndex*, std::unordered_set<size_t>>
      quarantined_;
};

}  // namespace aib

#endif  // AIB_CORE_DEGRADATION_H_
