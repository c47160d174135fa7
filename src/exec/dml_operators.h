#ifndef AIB_EXEC_DML_OPERATORS_H_
#define AIB_EXEC_DML_OPERATORS_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/partition_latch.h"
#include "core/buffer_space.h"
#include "core/maintenance.h"
#include "exec/operator.h"
#include "exec/statement.h"
#include "index/partial_index.h"

namespace aib {

/// Base of the three write-path leaves. A DML operator is the single place
/// Table I maintenance runs: it mutates the heap and immediately applies
/// partial-index upkeep, Index Buffer upkeep, and C[p] adjustment for every
/// registered index, all inside one critical section.
///
/// Latching (partition-granular): Open takes nothing — DML no longer
/// touches the space's structural latch or the executor's statement latch
/// exclusively, so statements mutating disjoint pages run concurrently
/// with each other and with covered probes. NextBatch acquires, in the
/// global latch order, exactly what the statement mutates:
///
///   1. the table's append mutex — Insert/Update only (they take room; it
///      fixes the page the heap chooses, so the stripe set latched next is
///      the set the write actually touches). Delete skips it;
///   2. the heap page stripes of the mutated pages, exclusive, ascending
///      (insert: the chosen page and the next fresh page; update: the old
///      page plus those two; delete: the old page);
///   3. the scan sentinel of every registered Index Buffer, shared,
///      ascending column order — excludes indexing scans of those buffers
///      and Algorithm 2 partition drops for the commit's duration. This
///      acquisition never blocks: a sentinel is only held exclusively by a
///      scan that also holds every heap stripe shared, which the
///      stripe-exclusive acquisition in step 2 already excludes.
///
/// Nothing orders two writers on different pages of one buffer partition:
/// every structure they share synchronizes itself (the buffer's partition
/// maps, the page counters, the partial index with its version counter),
/// and coverage changes — MarkPageIndexed, drops, demotion, promotion,
/// quarantine — happen only under a sentinel held exclusively, which step
/// 3 excludes. Each writer's Table I decisions read only its own pages'
/// coverage and C[p], and the order of two such writers was never more
/// than timing. Reads that latch nothing (Table II updates, probes of other
/// partitions) stay safe for the same reason.
///
/// Fault atomicity: only the pre-mutation read phase (fetching the old
/// tuple image) is exposed to the fault injector. The commit section —
/// heap write plus the maintenance loop — runs under
/// FaultInjector::ScopedSuspend, modeling a WAL-protected atomic commit:
/// a failed statement has mutated nothing, which is what makes whole-
/// statement retries by the service safe.
///
/// Each operator emits its affected rid as a one-row batch, so row counts
/// flow up through the same batch interface as query results.
class DmlOperator : public PhysicalOperator {
 public:
  DmlOperator(Table* table, IndexBufferSpace* space,
              const std::map<ColumnId, PartialIndex*>* indexes);

  Status Open(ExecContext* ctx) override;
  Status Close() override;

 protected:
  /// The write-side latch bundle of one statement (levels 2–3 of the class
  /// comment); released bottom-up by destruction order at end of scope.
  struct WriteLatches {
    PartitionLatchTable::LatchSet stripes;
    std::vector<std::shared_lock<std::shared_mutex>> sentinels;
  };

  /// Acquires stripes (exclusive) and buffer sentinels (shared) for a
  /// statement touching `pages`. The caller already holds the append mutex
  /// when the statement might insert.
  WriteLatches AcquireWriteLatches(const std::vector<size_t>& pages);

  /// The dense pages an insert of `tuple` may touch: `*target`, the page
  /// the heap chooses for it (the tail when no listed page fits), and the
  /// fresh page that follows the tail. Caller holds the append mutex.
  std::vector<size_t> InsertPages(const Tuple& tuple, size_t* target) const;

  /// Runs the Table I matrix against every registered index (an index's
  /// buffer may be absent — partial-index upkeep still runs). `old_tuple`
  /// is null for inserts, `new_tuple` null for deletes; the per-column key
  /// values of each TupleChange are extracted here.
  Status Maintain(const Tuple* old_tuple, const Rid& old_rid, size_t old_page,
                  const Tuple* new_tuple, const Rid& new_rid,
                  size_t new_page);

  /// "pidx+ibuf+C[p]" / "pidx" / "none" — which maintenance applies here.
  std::string MaintenanceSummary() const;

  /// "col0=5, col1=105" over the schema's int columns of `tuple`.
  std::string RenderValues(const Tuple& tuple) const;

  Table* table_;
  IndexBufferSpace* space_;
  const std::map<ColumnId, PartialIndex*>* indexes_;
  bool done_ = false;
};

/// Leaf: inserts one tuple, maintains every index, emits the new rid.
class InsertOp : public DmlOperator {
 public:
  InsertOp(Table* table, IndexBufferSpace* space,
           const std::map<ColumnId, PartialIndex*>* indexes, Tuple tuple);

  std::string Name() const override { return "Insert"; }
  std::string Describe() const override;
  Result<bool> NextBatch(TupleBatch* out) override;

 private:
  Tuple tuple_;
};

/// Leaf: replaces the tuple at `target` with a new image, maintains every
/// index with the old/new incarnation pair (Table I's full matrix), emits
/// the post-update rid — which differs from `target` when the new image no
/// longer fit its slot and the heap relocated it.
class UpdateOp : public DmlOperator {
 public:
  UpdateOp(Table* table, IndexBufferSpace* space,
           const std::map<ColumnId, PartialIndex*>* indexes, const Rid& target,
           Tuple tuple);

  std::string Name() const override { return "Update"; }
  std::string Describe() const override;
  Result<bool> NextBatch(TupleBatch* out) override;

 private:
  Rid target_;
  Tuple tuple_;
};

/// Leaf: deletes the tuple at `target`, maintains every index, emits the
/// removed rid.
class DeleteOp : public DmlOperator {
 public:
  DeleteOp(Table* table, IndexBufferSpace* space,
           const std::map<ColumnId, PartialIndex*>* indexes,
           const Rid& target);

  std::string Name() const override { return "Delete"; }
  std::string Describe() const override;
  Result<bool> NextBatch(TupleBatch* out) override;

 private:
  Rid target_;
};

}  // namespace aib

#endif  // AIB_EXEC_DML_OPERATORS_H_
