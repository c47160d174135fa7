#ifndef AIB_CORE_BUFFER_SPACE_H_
#define AIB_CORE_BUFFER_SPACE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/degradation.h"
#include "core/index_buffer.h"

namespace aib {

/// Order in which candidate pages are considered by Algorithm 2. The paper
/// prescribes ascending counter order ("pages with many already indexed
/// tuples are more valuable", §III); the alternatives exist for the
/// design-choice ablation bench.
enum class PageSelectionPolicy {
  kCounterAscending,   // paper
  kCounterDescending,  // worst case: most expensive pages first
  kRandom,             // counter-oblivious
};

/// What Algorithm 2 does with a victim partition. The paper drops it (the
/// next miss pays a full indexing scan again); the 2-Tree refactor demotes
/// it into a compacted cold run that keeps C[p]/coverage valid and promotes
/// back on re-access at memcpy cost. kDrop remains for the legacy tests and
/// as the bench baseline.
enum class EvictionMode {
  kDemote,
  kDrop,
};

struct BufferSpaceOptions {
  /// L: total entry budget across all Index Buffers (paper Exp. 3: 800,000).
  /// 0 = unlimited (paper Exp. 1).
  size_t max_entries = 0;
  /// I_MAX: upper bound on pages newly indexed per table scan (paper: 5,000
  /// or 10,000). 0 = no per-scan cap.
  size_t max_pages_per_scan = 5000;
  /// Seed for the probabilistic victim selection.
  uint64_t seed = 42;
  PageSelectionPolicy selection_policy = PageSelectionPolicy::kCounterAscending;
  EvictionMode eviction_mode = EvictionMode::kDemote;
};

/// Result of Algorithm 2: the pages to index during the upcoming table scan
/// and what was displaced to make room for them.
struct PageSelection {
  /// I: page numbers to index, ascending counter order.
  std::vector<size_t> pages;
  /// n_I = sum of C[p] over `pages` — entries the scan will add.
  size_t expected_entries = 0;
  size_t partitions_dropped = 0;
  size_t entries_dropped = 0;
  /// Demote-mode displacement: victims compacted into the cold tier (their
  /// entries left the hot budget but remain probe-able).
  size_t partitions_demoted = 0;
  size_t entries_demoted = 0;
};

/// Result of a promotion pass (see PromoteForQuery).
struct PromotionResult {
  size_t partitions = 0;
  size_t entries = 0;
};

/// The Index Buffer Space (§IV): a bounded share of the database buffer
/// that hosts all Index Buffers, enforces the entry budget L, runs the page
/// selection of Algorithm 2, and updates every buffer's LRU-K history per
/// Table II on each query.
///
/// Concurrency (partition-granular refactor): the old whole-space latch is
/// demoted to a rarely-taken *structural* latch (`latch()`), held
/// exclusively only by an indexing scan's Open — around buffer creation,
/// Algorithm 2's victim selection + partition drops, and quarantine/repair
/// decisions — and released before the scan drains. Everything else is
/// finer-grained:
///  - Each IndexBuffer self-synchronizes its partitions and history (see
///    IndexBuffer), and carries a per-buffer scan sentinel so indexing
///    scans of *different* buffers overlap while DML excludes Algorithm 2
///    drops from the buffers it is maintaining.
///  - The buffer map itself is guarded by an internal reader-writer lock
///    (lookups shared, CreateBuffer exclusive), so probes can resolve
///    buffers without any global latch.
/// No latch orders two writers on different pages of one partition: every
/// structure they share synchronizes itself, and coverage changes only
/// under a buffer's sentinel held exclusively.
/// Full latch order: executor membrane → structural latch → heap page
/// stripes → buffer scan sentinels → leaf locks (docs/ALGORITHMS.md has
/// the complete table). Single-threaded callers may ignore all latches, as
/// the seed tests and benches do.
class IndexBufferSpace {
 public:
  /// Buffers are kept ordered by indexed column, not by pointer value:
  /// victim candidates and Table II history updates iterate this map, and a
  /// pointer-keyed order would make Algorithm 2's seeded victim draw depend
  /// on heap addresses — two identically-built spaces replaying the same
  /// workload could then adapt differently. Column order (pointer as a
  /// same-column tiebreak) keeps the whole adaptive trajectory a pure
  /// function of (workload, seed).
  struct OrderByColumn {
    bool operator()(const PartialIndex* a, const PartialIndex* b) const;
  };
  using BufferMap =
      std::map<const PartialIndex*, std::unique_ptr<IndexBuffer>,
               OrderByColumn>;

  explicit IndexBufferSpace(BufferSpaceOptions options,
                            Metrics* metrics = nullptr);

  const BufferSpaceOptions& options() const { return options_; }

  /// Creates (or returns) the Index Buffer backing `index` and initializes
  /// its page counters: to `counters` when given (the C[p] that
  /// PartialIndex::Build returned), else from a walk of the table. The
  /// space keeps ownership.
  Result<IndexBuffer*> CreateBuffer(
      const PartialIndex* index, IndexBufferOptions buffer_options = {},
      std::optional<std::vector<uint32_t>> counters = std::nullopt);

  /// Null if no buffer exists for `index`.
  IndexBuffer* GetBuffer(const PartialIndex* index) const;

  /// Unsynchronized map view for quiesced contexts only (consistency
  /// checks, single-threaded tests).
  const BufferMap& buffers() const { return buffers_; }

  bool Unlimited() const { return options_.max_entries == 0; }

  /// Entries currently used across all buffers.
  size_t TotalEntries() const;

  /// n_F: free entries under the budget; SIZE_MAX when unlimited.
  size_t FreeEntries() const;

  /// Table II: updates every buffer's history for a query on
  /// `queried_index`'s column that hit (`partial_hit`) or missed its
  /// partial index. Self-synchronized (per-buffer history locks); callers
  /// need no latch, but concurrent calls land in executor submission
  /// order, which the executor serializes per statement.
  void OnQuery(const PartialIndex* queried_index, bool partial_hit);

  /// The demoted *structural* latch (see class comment): exclusive for
  /// indexing-scan Open (buffer creation + Algorithm 2 + quarantine
  /// decisions); ordinary statements never take it. Mutable so read-side
  /// callers can take shared locks through a const space.
  std::shared_mutex& latch() const { return latch_; }

  /// Algorithm 2 (SelectPagesForBuffer): chooses the pages the upcoming
  /// table scan should index into `target`, dropping just enough low-benefit
  /// partitions so that the new index information fits and is more
  /// beneficial than what it displaces. Partitions are dropped before this
  /// returns; each victim buffer's scan sentinel is taken exclusively for
  /// its drops, so in-flight DML maintaining that buffer (sentinel shared)
  /// is excluded. Pages quarantined by the degradation manager are excluded
  /// from the candidates — they stay scan-only until the quarantine lifts.
  /// Caller holds the structural latch exclusively and `target`'s sentinel.
  PageSelection SelectPagesForBuffer(IndexBuffer* target);

  /// Quarantine/degradation book-keeping (see DegradationManager);
  /// self-synchronized.
  DegradationManager& degradation() { return degradation_; }
  const DegradationManager& degradation() const { return degradation_; }

  // --- Cold tier -------------------------------------------------------------

  /// Promotes `target`'s cold partitions whose key ranges overlap [lo, hi]
  /// back into the hot tier (ascending partition id), stopping when a
  /// promotion would overrun the hot entry budget. Demote mode only; no-op
  /// under kDrop. Caller holds the structural latch exclusively and
  /// `target`'s scan sentinel (the indexing-scan Open path).
  PromotionResult PromoteForQuery(IndexBuffer* target, Value lo, Value hi);

  /// Cold-run bytes across all buffers.
  size_t ColdBytes() const;
  /// Entries across all cold runs (not charged against `max_entries`).
  size_t ColdEntries() const;
  size_t ColdPartitionCount() const;

 private:
  struct VictimRef {
    IndexBuffer* buffer = nullptr;
    size_t partition_id = 0;
    double benefit = 0;
    size_t entries = 0;
  };

  /// Two-staged victim selection (§IV): stage 1 picks a buffer with
  /// probability proportional to 1/b_B among buffers other than `target`
  /// that still have unchosen partitions (falling back to `target` itself
  /// when it is the only buffer with partitions — required with a single
  /// partial index and bounded space, a case the paper's formula leaves
  /// open); stage 2 picks the incomplete partition first, then complete
  /// partitions by descending entry count. Operates on per-buffer
  /// PartitionSnapshot()s, so concurrent DML emplacing partitions cannot
  /// race the iteration.
  std::optional<VictimRef> SelectNextPartition(
      IndexBuffer* target,
      const std::set<std::pair<IndexBuffer*, size_t>>& chosen);

  BufferSpaceOptions options_;
  Metrics* metrics_;
  mutable std::shared_mutex latch_;
  mutable Rng rng_;
  /// Guards the buffer map itself (not the buffers' contents).
  mutable std::shared_mutex buffers_mu_;
  BufferMap buffers_;
  DegradationManager degradation_;
};

}  // namespace aib

#endif  // AIB_CORE_BUFFER_SPACE_H_
