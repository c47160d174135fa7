#ifndef AIB_COMMON_PARTITION_LATCH_H_
#define AIB_COMMON_PARTITION_LATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/metrics.h"

namespace aib {

/// A striped reader-writer latch table: a fixed array of shared_mutex
/// stripes that an unbounded key space (heap page numbers) maps onto with
/// `StripeOf`. This is the partition-granular latching primitive of the
/// concurrency refactor — statements latch only the stripes of the pages
/// they touch, so work on disjoint pages overlaps while collisions degrade
/// gracefully into short waits.
///
/// Acquisition discipline (deadlock freedom): every multi-stripe
/// acquisition locks its stripes in ascending stripe order, in one batch,
/// through AcquireAll*/AcquireShared/AcquireExclusive. Callers never extend
/// a held LatchSet — compute the full key set first, acquire once.
///
/// Observability: each acquisition bumps the shared/exclusive acquire
/// counters; an acquisition that could not take a stripe immediately bumps
/// the wait counter and records the blocked time in the `latch.wait_us`
/// histogram (both via the Metrics registry, rolled up fleet-wide by
/// Metrics::MergeFrom). Uncontended acquisitions stay on a try_lock fast
/// path with no clock reads.
class PartitionLatchTable {
 public:
  // 32, not more: whole-table reader acquisitions hold every stripe at
  // once, and ThreadSanitizer's deadlock detector aborts the process when
  // one thread holds 64+ locks — 32 stripes plus the handful of
  // higher-level latches a scan carries stays safely under that cap while
  // keeping page-collision probability low.
  static constexpr size_t kDefaultStripes = 32;

  /// A set of stripes, bit s for stripe s: `stripes` is clamped to
  /// [1, 64], so a set is one word and building one allocates nothing.
  using StripeMask = uint64_t;

  explicit PartitionLatchTable(Metrics* metrics = nullptr,
                               size_t stripes = kDefaultStripes);

  PartitionLatchTable(const PartitionLatchTable&) = delete;
  PartitionLatchTable& operator=(const PartitionLatchTable&) = delete;

  size_t stripe_count() const { return stripes_.size(); }
  size_t StripeOf(size_t key) const { return key % stripes_.size(); }
  StripeMask MaskOf(size_t key) const { return StripeMask{1} << StripeOf(key); }
  Metrics* metrics() const { return metrics_; }

  /// RAII over a set of held stripes; releases on destruction, movable so
  /// operators can hold their latches across Open/NextBatch/Close.
  class LatchSet {
   public:
    LatchSet() = default;
    LatchSet(LatchSet&& other) noexcept { *this = std::move(other); }
    LatchSet& operator=(LatchSet&& other) noexcept {
      if (this != &other) {
        Release();
        table_ = other.table_;
        held_ = other.held_;
        exclusive_ = other.exclusive_;
        other.table_ = nullptr;
        other.held_ = 0;
      }
      return *this;
    }
    LatchSet(const LatchSet&) = delete;
    LatchSet& operator=(const LatchSet&) = delete;
    ~LatchSet() { Release(); }

    void Release();
    bool empty() const { return held_ == 0; }

   private:
    friend class PartitionLatchTable;
    PartitionLatchTable* table_ = nullptr;
    StripeMask held_ = 0;
    bool exclusive_ = false;
  };

  /// Every stripe, shared: the whole-object reader acquisition scans use
  /// (a table scan touches every band, so it must exclude writers of every
  /// band for its duration).
  LatchSet AcquireAllShared();

  /// `stripes` (ascending), shared. Used by the optimistic probe path to
  /// pin just the probed pages' bands (a mask of MaskOf(page)).
  LatchSet AcquireShared(StripeMask stripes) {
    return AcquireStripes(stripes, /*exclusive=*/false);
  }

  /// The stripes of `keys` (deduplicated, ascending), exclusive. The DML
  /// writer acquisition: only readers of the mutated bands wait.
  LatchSet AcquireExclusive(const std::vector<size_t>& keys);

  /// Contention-accounted acquisition of a standalone latch (the demoted
  /// space structural latch, per-buffer scan sentinels), counted in this
  /// table's counters: same fast path and metrics contract as a stripe.
  std::unique_lock<std::shared_mutex> AcquireExclusiveTimed(
      std::shared_mutex& mu) const;
  std::shared_lock<std::shared_mutex> AcquireSharedTimed(
      std::shared_mutex& mu) const;

 private:
  LatchSet AcquireStripes(StripeMask stripes, bool exclusive);

  Metrics* metrics_;
  /// Heap-allocated so the table is movable-free and stripes never move.
  std::vector<std::unique_ptr<std::shared_mutex>> stripes_;
  std::atomic<int64_t>* shared_acquires_ = nullptr;
  std::atomic<int64_t>* exclusive_acquires_ = nullptr;
  std::atomic<int64_t>* waits_ = nullptr;
};

/// Optimistic-read accounting (see PartialIndexProbe): one retry = a
/// version validation failed and the probe re-ran; one fallback = the retry
/// budget was exhausted and the probe took the pessimistic whole-table
/// reader acquisition.
void RecordOptimisticRetry(Metrics* metrics);
void RecordOptimisticFallback(Metrics* metrics);

}  // namespace aib

#endif  // AIB_COMMON_PARTITION_LATCH_H_
