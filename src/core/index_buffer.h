#ifndef AIB_CORE_INDEX_BUFFER_H_
#define AIB_CORE_INDEX_BUFFER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "btree/index_structure.h"
#include "common/metrics.h"
#include "core/buffer_partition.h"
#include "core/lru_k_history.h"
#include "core/page_counters.h"
#include "index/partial_index.h"

namespace aib {

/// K of every Index Buffer's LRU-K history (§III-B).
inline constexpr size_t kIndexBufferLruK = 2;

struct IndexBufferOptions {
  /// P: maximum number of table pages one partition covers (paper: 10,000).
  size_t partition_pages = 10000;
  /// Index structure per partition.
  IndexStructureKind structure = IndexStructureKind::kBTree;
  /// Seed value for all K history slots of a fresh buffer.
  double initial_interval = 100.0;
};

/// The Index Buffer of one partial index (§III): an in-memory scratch-pad
/// index over exactly those tuples of buffer-covered pages that the partial
/// index leaves unindexed. Together with the partial index it makes covered
/// pages *fully indexed*, so table scans can skip them (C[p] == 0).
///
/// Owns the page counters C, the partitioned index structure, and the LRU-K
/// access history that drives the benefit model.
///
/// Two tiers (2-Tree refactor): every partition is a BufferPartition, and
/// its structure is its storage format. A *hot* partition holds a mutable
/// B+-tree charging the space's entry budget; a *cold* (demoted) one holds
/// a compacted run (ColdRun) that keeps the partition's coverage and C[p]
/// state valid at a fraction of the footprint, outside the entry budget.
/// The tiers are two maps of the same type, so DML, drops and probes treat
/// both alike. Both live in memory: the buffer is a recovery-free scratch
/// pad.
/// Eviction demotes hot → cold instead of dropping; re-access promotes
/// cold → hot at memcpy cost. The LRU-K history is per-buffer and
/// untouched by tier moves, so a promoted partition's benefit b_p
/// continues from its pre-demotion history. Probes
/// consult both tiers (ascending partition id, cold before a hot sibling
/// of the same id — cold entries are the older epoch), so results match a
/// never-demoted buffer bit-for-bit. DML on a cold-covered page patches
/// the run in place (Table I never goes stale).
///
/// Concurrency (partition-granular refactor): the buffer is
/// self-synchronized instead of relying on the whole-space latch.
///  - `partitions_mu_` (internal reader-writer lock) guards the partition
///    map and reserve hints: every partition-content mutation
///    (AddTuple/RemoveTuple/MarkPageIndexed/DropPartition/SetReserveHints)
///    takes it exclusively; probes and accounting reads take it shared.
///  - `hist_mu_` guards the LRU-K history behind the
///    OnBufferUse/OnOtherQuery/MeanInterval wrappers.
///  - `scan_latch()` is the buffer's *scan sentinel*: an indexing scan
///    holds it exclusively Open→Close (making Algorithm 1 atomic per
///    buffer — two scans on the *same* buffer serialize, scans on
///    different buffers overlap), while DML holds the sentinels of the
///    buffers it maintains shared for the statement, so Algorithm 2 can
///    take a victim buffer's sentinel exclusively before dropping its
///    partitions.
/// Lock order within the buffer: partitions_mu_ before the counters' own
/// leaf lock (SetReserveHints, DropPartition restore C[p] while holding
/// partitions_mu_); never the reverse. hist_mu_ is a leaf, never held
/// across another acquisition.
class IndexBuffer {
 public:
  /// Does not own `index`. `metrics` may be null.
  IndexBuffer(const PartialIndex* index, IndexBufferOptions options,
              Metrics* metrics = nullptr);

  ColumnId column() const { return index_->column(); }
  const PartialIndex& partial_index() const { return *index_; }
  const IndexBufferOptions& options() const { return options_; }

  // --- Page counters -------------------------------------------------------

  /// Initializes C[p] from PartialIndex::WalkTable (the repair fallback;
  /// index creation hands the counts of its own walk to CreateBuffer).
  Status InitCounters();

  PageCounters& counters() { return counters_; }
  const PageCounters& counters() const { return counters_; }

  // --- Partitions and entries ---------------------------------------------

  size_t PartitionIdFor(size_t page) const {
    return page / options_.partition_pages;
  }

  /// True iff `page` is covered by a partition ("p ∈ B" in Table I).
  bool PageInBuffer(size_t page) const;

  /// B.Add(t): indexes one tuple of `page`. Creates the partition on
  /// demand. Does not touch C[p] — callers decide (Algorithm 1 sets C to 0
  /// once the page is complete; Table I cases add to already-covered pages).
  void AddTuple(size_t page, Value value, const Rid& rid);

  /// B.Remove(t): drops one tuple's entry; returns false if absent.
  bool RemoveTuple(size_t page, Value value, const Rid& rid);

  /// B.Update(t_old, t_new): both pages are in the buffer.
  void UpdateTuple(size_t old_page, Value old_value, const Rid& old_rid,
                   size_t new_page, Value new_value, const Rid& new_rid);

  /// Marks `page` fully indexed: C[page] = 0 and the page is registered
  /// with its partition (Algorithm 1, line 17).
  void MarkPageIndexed(size_t page);

  /// Sizes partition structures ahead of a bulk insert: for the pages an
  /// indexing scan is about to cover, C[p] bounds the entries each page
  /// will add, so the per-partition totals are known up front. Existing
  /// partitions reserve immediately; partitions that do not exist yet get
  /// a pending hint applied on creation (they are *not* pre-created —
  /// PartitionCount feeds the benefit model and must only count partitions
  /// that hold state). Hints are consumed on use and cleared on each call.
  void SetReserveHints(const std::vector<size_t>& selected_pages);

  // --- Scans ---------------------------------------------------------------

  /// Which tier served how much of a probe (EXPLAIN's tier annotation).
  struct ProbeTierStats {
    size_t hot_partitions = 0;
    size_t cold_partitions = 0;
    size_t hot_matches = 0;
    size_t cold_matches = 0;
  };

  /// Point probe across all partitions of both tiers (ascending partition
  /// id; cold before a hot sibling of the same id). Counts one probe per
  /// partition.
  void Lookup(Value value, std::vector<Rid>* out,
              ProbeTierStats* tier = nullptr) const;

  /// Range probe across all partitions of both tiers. Results are
  /// unordered across partitions.
  void Scan(Value lo, Value hi,
            const std::function<void(Value, const Rid&)>& fn,
            ProbeTierStats* tier = nullptr) const;

  // --- Benefit model and space accounting -----------------------------------

  /// Table II hooks, synchronized on the internal history lock.
  void OnBufferUse();
  void OnOtherQuery();

  /// Unsynchronized history view for quiesced contexts only
  /// (single-threaded experiments).
  LruKHistory& history() { return history_; }
  const LruKHistory& history() const { return history_; }

  /// T_B.
  double MeanInterval() const;

  /// b_B = sum of partition benefits.
  double TotalBenefit() const;

  /// Total entries across partitions (the buffer's size in the Index
  /// Buffer Space budget).
  size_t TotalEntries() const;

  size_t PartitionCount() const;

  /// One partition's figures in a consistent snapshot.
  struct PartitionStats {
    size_t id = 0;
    size_t entries = 0;
    size_t covered_pages = 0;
    /// b_p against MeanInterval() at snapshot time; hot tier only (cold
    /// partitions are not eviction candidates).
    double benefit = 0;
    /// Key range, valid when entries > 0; cold tier only (promotion tests
    /// a query's range against it).
    Value min_key = 0;
    Value max_key = 0;
  };
  /// Consistent hot-tier snapshot (ascending partition id — the same
  /// order iterating the live map would yield, which Algorithm 2's seeded
  /// victim selection depends on).
  std::vector<PartitionStats> PartitionSnapshot() const;

  /// partition id -> partition; one map per tier.
  using PartitionMap = std::map<size_t, std::unique_ptr<BufferPartition>>;

  /// Unsynchronized views of the hot and cold tiers for quiesced contexts
  /// only (consistency checks, single-threaded tests).
  const PartitionMap& partitions() const { return partitions_; }
  const PartitionMap& cold_partitions() const { return cold_; }

  /// The buffer's scan sentinel (see class comment). Mutable-through-const
  /// so read-side callers can latch through a const buffer.
  std::shared_mutex& scan_latch() const { return scan_latch_; }

  /// Drops partition `partition_id` entirely, restoring C[p] for each page
  /// it covered to that page's buffered-entry count. Returns the number of
  /// entries freed.
  size_t DropPartition(size_t partition_id);

  /// Drops everything (all partitions, both tiers); counters are restored
  /// as in DropPartition.
  void Clear();

  // --- Cold tier (demote / promote) -----------------------------------------

  /// Demotes a hot partition into a compacted cold run. Coverage and C[p]
  /// are untouched — covered pages stay skippable. Merges with an existing
  /// cold sibling of the same id (the sibling's entries are the older
  /// epoch). Returns the entries removed from the hot tier (0 if absent).
  size_t DemotePartition(size_t partition_id);

  /// Promotes a cold run back into the hot tier: entries replay into a
  /// (new or existing) hot partition in run order and the saved page map
  /// merges back. NotFound if no cold partition with this id exists.
  Status PromotePartition(size_t partition_id);

  /// Discards a cold run entirely, restoring C[p] for each covered page —
  /// the true eviction. Returns the entries discarded.
  size_t DropColdRun(size_t partition_id);

  size_t ColdPartitionCount() const;
  /// Entries across cold runs (not charged against the hot entry budget).
  size_t ColdEntries() const;
  /// Cold-run bytes (ApproxBytes summed over runs).
  size_t ColdBytes() const;

  /// Consistent cold-tier snapshot, ascending partition id.
  std::vector<PartitionStats> ColdSnapshot() const;

 private:
  /// Callers hold partitions_mu_ exclusively.
  BufferPartition* GetOrCreatePartitionLocked(size_t page);
  /// The partition of `tier` that covers `page`, or null. Callers hold
  /// partitions_mu_.
  BufferPartition* CoveringPartitionLocked(const PartitionMap& tier,
                                           size_t page) const;
  /// Drops partition `partition_id` of `tier`, restoring C[p] for each
  /// page it covered to that page's entry count. Returns the entries
  /// freed.
  size_t DropLocked(PartitionMap& tier, size_t partition_id);
  /// Applies `delta` to the `core.cold_bytes` gauge.
  void CountColdBytes(int64_t delta) const;

  /// Adds one Lookup's or Scan's tallies to `index.probes` and
  /// `core.cold_hits` in one registry call each; a zero tally names no
  /// counter.
  void CountProbes(int64_t probes, int64_t cold_hits) const;

  const PartialIndex* index_;
  IndexBufferOptions options_;
  Metrics* metrics_;
  /// Cached handle for the AddTuple hot path (null when metrics_ is null);
  /// bulk inserts bump one relaxed atomic instead of a registry lookup.
  std::atomic<int64_t>* entries_added_ = nullptr;

  PageCounters counters_;

  mutable std::mutex hist_mu_;
  LruKHistory history_;

  mutable std::shared_mutex scan_latch_;

  /// Guards partitions_, reserve_hints_, and the cold tier map.
  mutable std::shared_mutex partitions_mu_;
  /// partition id -> expected further entries; see SetReserveHints.
  std::map<size_t, size_t> reserve_hints_;
  /// The hot tier.
  PartitionMap partitions_;
  /// The cold tier: demoted partitions, each over a ColdRun.
  PartitionMap cold_;
};

}  // namespace aib

#endif  // AIB_CORE_INDEX_BUFFER_H_
