#ifndef AIB_INDEX_PARTIAL_INDEX_H_
#define AIB_INDEX_PARTIAL_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "btree/index_structure.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "index/value_coverage.h"
#include "storage/table.h"

namespace aib {

/// A partial secondary index on one integer column: an index structure
/// restricted to the values in a ValueCoverage (§II). Tuples whose key value
/// is outside the coverage are not indexed and, by themselves, force table
/// scans.
///
/// The index models the paper's *disk-based* partial index: the adaptation
/// cost accounting (entries added/removed) feeds the control-loop-delay
/// experiment (Fig. 1), where changing the coverage is the expensive
/// operation the Index Buffer is designed to paper over.
///
/// Concurrency: the entry structure is self-synchronized — mutators
/// (Add/Remove/Update/Build/AddValue/RemoveValue) take an internal writer
/// lock and bump the version counter; Lookup/Scan/EntryCount take it
/// shared. The version counter drives the optimistic probe protocol (see
/// PartialIndexProbe): read version(), probe, validate version() is
/// unchanged — if it moved, a mutation may have raced the probe and the
/// probe retries. Covers() stays lock-free on purpose: the coverage is
/// only mutated by tuner adaptation, which runs under the executor's
/// exclusive statement membrane with no statements in flight.
class PartialIndex {
 public:
  /// `metrics` may be null. The index does not own `table`.
  PartialIndex(const Table* table, ColumnId column, ValueCoverage coverage,
               IndexStructureKind structure = IndexStructureKind::kBTree,
               Metrics* metrics = nullptr);

  ColumnId column() const { return column_; }
  const ValueCoverage& coverage() const { return coverage_; }
  const Table& table() const { return *table_; }

  /// Scans the table and indexes every covered tuple. Called once after
  /// loading; DML afterwards goes through maintenance (Table I).
  Status Build();

  /// True iff a tuple with key `v` would be covered ("t ∈ IX" in the
  /// paper's notation is value-based).
  bool Covers(Value v) const { return coverage_.Covers(v); }

  /// Probe for a covered value. Charges one index probe.
  void Lookup(Value v, std::vector<Rid>* out) const;

  /// Ordered scan of covered entries in [lo, hi].
  void Scan(Value lo, Value hi,
            const std::function<void(Value, const Rid&)>& fn) const;

  // --- DML hooks (IX column of Table I) ---
  void Add(Value v, const Rid& rid);
  void Remove(Value v, const Rid& rid);
  void Update(Value old_v, const Rid& old_rid, Value new_v,
              const Rid& new_rid);

  // --- Adaptation (used by IndexTuner) ---

  /// Extends the coverage by value `v` and indexes all `rids` (the matching
  /// tuples, found by the caller's scan). Returns entries added.
  size_t AddValue(Value v, const std::vector<Rid>& rids);

  /// Shrinks the coverage by value `v`, dropping its entries. Returns the
  /// removed rids (the Index Buffer maintenance needs them, §III Table I
  /// analog for adaptations).
  std::vector<Rid> RemoveValue(Value v);

  size_t EntryCount() const;

  /// Mutation counter for optimistic reads: bumped by every entry mutation
  /// (before the writer lock is released). A probe that observes the same
  /// version before and after its read saw a consistent structure.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// The structure kind this index was created with (snapshot metadata).
  IndexStructureKind structure_kind() const { return kind_; }

  /// Unsynchronized view for quiesced contexts only (consistency checks,
  /// snapshots) — callers must hold the executor membrane exclusively or
  /// otherwise exclude mutators.
  const IndexStructure& structure() const { return *structure_; }

 private:
  const Table* table_;
  ColumnId column_;
  ValueCoverage coverage_;
  IndexStructureKind kind_;
  std::unique_ptr<IndexStructure> structure_;
  Metrics* metrics_;
  /// Cached index.probes handle (null when metrics_ is null).
  std::atomic<int64_t>* probes_;

  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> version_{0};
};

}  // namespace aib

#endif  // AIB_INDEX_PARTIAL_INDEX_H_
