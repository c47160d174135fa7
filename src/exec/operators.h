#ifndef AIB_EXEC_OPERATORS_H_
#define AIB_EXEC_OPERATORS_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/partition_latch.h"
#include "core/buffer_space.h"
#include "exec/morsel.h"
#include "exec/operator.h"
#include "exec/query.h"
#include "index/partial_index.h"

namespace aib {

/// Leaf: scans every page of the table, evaluating the whole conjunction
/// with the branch-free batch kernel. Open runs the scan through
/// MorselPlainScan (fanned out as morsels when a dispatcher is configured
/// and the table is above the parallel floor) and NextBatch chunks the
/// matching rids, which need no fetch — the tuples were just read. The
/// baseline access path and the miss path when no Index Buffer Space is
/// configured.
///
/// Latching: Open takes every heap page stripe shared (a full scan reads
/// every page) and holds them until Close, so concurrent DML of any page
/// waits for the scan — while other scans and probes (shared) proceed.
class FullTableScan : public PhysicalOperator {
 public:
  FullTableScan(const Table* table, std::vector<ColumnPredicate> predicates);

  std::string Name() const override { return "FullTableScan"; }
  std::string Describe() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(TupleBatch* out) override;
  Status Close() override;

 private:
  const Table* table_;
  std::vector<ColumnPredicate> predicates_;
  std::vector<Rid> rids_;
  size_t cursor_ = 0;
  PartitionLatchTable::LatchSet heap_latch_;
};

/// Leaf: probes the partial index for value ∈ [lo, hi] (fully covered by
/// construction — the planner guarantees it). Emits capacity-bounded
/// batches of rids that still need fetching.
///
/// Optimistic read protocol (covered point probes never block behind
/// adaptation): read the index version, probe (the index's own reader
/// lock makes the probe itself consistent), translate the result rids to
/// page numbers (pure directory lookups), take those pages' heap stripes
/// shared, then validate the version is unchanged — a concurrent mutation
/// would have bumped it between the pre-probe read and the post-latch
/// check, so an unchanged version proves the latched pages still hold
/// exactly the probed tuples. On mismatch the latches are dropped and the
/// probe retries (counted in latch.optimistic_retries); after
/// kMaxOptimisticRetries it falls back to the pessimistic path — all
/// stripes shared, then probe (latch.optimistic_fallbacks). The stripes
/// stay held until Close so the enclosing Filter/Materialize can fetch
/// the probed tuples without them moving underneath. Single-threaded
/// execution validates on the first pass and is bit-identical to the
/// pre-optimistic code.
class PartialIndexProbe : public PhysicalOperator {
 public:
  PartialIndexProbe(const PartialIndex* index, Value lo, Value hi);

  static constexpr int kMaxOptimisticRetries = 4;

  /// Test seam: invoked after each probe attempt, before version
  /// validation — a test can mutate the index here to force a conflict.
  /// Process-wide; pass nullptr to clear. Not for production use.
  static void SetConflictHookForTest(std::function<void()> hook);

  std::string Name() const override { return "PartialIndexProbe"; }
  std::string Describe() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(TupleBatch* out) override;
  Status Close() override;

 private:
  /// Runs the optimistic protocol, filling pending_ and page_latch_.
  Status ProbeOptimistically();

  const PartialIndex* index_;
  Value lo_;
  Value hi_;
  bool probed_ = false;
  std::vector<Rid> pending_;
  size_t cursor_ = 0;
  PartitionLatchTable::LatchSet page_latch_;
};

/// Leaf: probes the Index Buffer for matches on skipped pages (lines 8–10
/// of Algorithm 1). The buffer is bound late by the enclosing
/// IndexingTableScan (it may be created on this very query's first miss);
/// buffer_probes is recorded at Open time, before Algorithm 2 drops
/// partitions. Emitted rids need fetching.
class IndexBufferProbe : public PhysicalOperator {
 public:
  IndexBufferProbe(ColumnId column, Value lo, Value hi);

  /// Called by the owning IndexingTableScan before Open.
  void BindBuffer(IndexBuffer* buffer) { buffer_ = buffer; }

  std::string Name() const override { return "IndexBufferProbe"; }
  std::string Describe() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(TupleBatch* out) override;
  Status Close() override;

 private:
  ColumnId column_;
  Value lo_;
  Value hi_;
  IndexBuffer* buffer_ = nullptr;
  bool probed_ = false;
  std::vector<Rid> pending_;
  size_t cursor_ = 0;
};

/// Leaf of the hybrid tail: scans the partial index over the covered part
/// of a range and keeps only rids on pages that were already fully indexed
/// (skipped) *before* this query's table scan ran — scanned pages yielded
/// their covered matches during the scan. Reads the skipped-page snapshot
/// filled by the enclosing IndexingTableScan. Emitted rids need fetching.
class CoveredOnSkippedFetch : public PhysicalOperator {
 public:
  CoveredOnSkippedFetch(const PartialIndex* index, const Table* table,
                        Value lo, Value hi,
                        std::shared_ptr<const std::vector<bool>> skipped);

  std::string Name() const override { return "CoveredOnSkippedFetch"; }
  std::string Describe() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(TupleBatch* out) override;
  Status Close() override;

 private:
  const PartialIndex* index_;
  const Table* table_;
  Value lo_;
  Value hi_;
  std::shared_ptr<const std::vector<bool>> skipped_;
  bool probed_ = false;
  std::vector<Rid> pending_;
  size_t cursor_ = 0;
};

/// Algorithm 1 as an operator, owning the miss path's latch scope. Open
/// acquires, in order: the space's *structural* latch exclusively (buffer
/// creation on the column's first miss, the skipped-page snapshot, and
/// Algorithm 2's victim selection + drops run under it), then every heap
/// page stripe shared, then this buffer's scan sentinel exclusively. The
/// structural latch is released mid-Open, right after Algorithm 2 — so
/// indexing scans filling *different* buffers overlap their probe drain
/// and scan legs — while the stripes and the sentinel stay held until
/// Close, keeping the heap and this buffer stable for everything the
/// children emit: the adaptive mutation is still one atomic critical
/// section per buffer, exactly as the paper's pseudocode assumes.
/// Acquiring stripes before the sentinel mirrors DML's order and is what
/// keeps the whole discipline deadlock-free (see
/// IndexBufferSpace::SelectPagesForBuffer).
///
/// The scan leg runs through MorselIndexingScan (exec/morsel.h): with a
/// dispatcher configured it fans pages out to read-only workers and merges
/// the staged per-page results under these latches, bit-identical to the
/// inline run for any worker count.
///
/// Emission order (Algorithm 1's: lines 8–10, then lines 11–17): the
/// probe pipeline's buffer matches, then the scan's matches, then the
/// hybrid tail's covered-on-skipped matches — each chunked to batch
/// capacity.
///
/// Degradation (see DegradationManager): when the indexing table scan hits
/// an I/O fault, the failing page's partition is dropped and the page
/// quarantined — legal at any time by the recovery-free property — the
/// buffer is re-validated, and the whole query is answered by a plain
/// full-table scan leg instead (probe/tail legs are cleared; the plain scan
/// subsumes them). Deadline/cancel aborts are *not* degraded: the per-page
/// control check fires before a page is touched, so the buffer is already
/// consistent and Timeout/Cancelled propagates as-is.
class IndexingTableScan : public PhysicalOperator {
 public:
  /// `probe_pipeline` must contain `probe` (possibly wrapped in a Filter);
  /// `tail_pipeline` is the hybrid covered-on-skipped pipeline or null.
  /// `snapshot` is shared with the tail's CoveredOnSkippedFetch and filled
  /// during Open; pass null for non-hybrid plans.
  IndexingTableScan(const Table* table, IndexBufferSpace* space,
                    PartialIndex* index, IndexBufferOptions buffer_options,
                    std::vector<ColumnPredicate> predicates,
                    std::unique_ptr<PhysicalOperator> probe_pipeline,
                    IndexBufferProbe* probe,
                    std::unique_ptr<PhysicalOperator> tail_pipeline,
                    std::shared_ptr<std::vector<bool>> snapshot);

  std::string Name() const override { return "IndexingTableScan"; }
  std::string Describe() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(TupleBatch* out) override;
  Status Close() override;
  std::vector<const PhysicalOperator*> Children() const override;

 private:
  enum class Stage { kProbe, kScan, kTail, kDone };

  /// The scan leg of Open: Algorithm 1 lines 11–17 with fault handling.
  Status RunScanLeg(IndexBuffer* buffer,
                    const std::unordered_set<size_t>& selected,
                    ExecContext* ctx);

  /// Drops the failing page's partition, restores its counter, records the
  /// quarantine, and re-validates the buffer (clearing it wholesale if the
  /// targeted repair did not restore the invariants).
  Status QuarantineAndRepair(IndexBuffer* buffer,
                             const IndexingScanFailure& failure);

  /// Degraded leg: answers the whole conjunction with a plain scan that
  /// never touches the Index Buffer; probe/tail contributions are cleared.
  Status PlainScanFallback(ExecContext* ctx);

  const Table* table_;
  IndexBufferSpace* space_;
  PartialIndex* index_;
  IndexBufferOptions buffer_options_;
  std::vector<ColumnPredicate> predicates_;
  std::unique_ptr<PhysicalOperator> probe_pipeline_;
  IndexBufferProbe* probe_;  // owned via probe_pipeline_
  std::unique_ptr<PhysicalOperator> tail_pipeline_;
  std::shared_ptr<std::vector<bool>> snapshot_;

  /// Structural-latch scope; held only inside Open (see class comment).
  std::unique_lock<std::shared_mutex> structural_;
  /// Every heap page stripe, shared, Open → Close.
  PartitionLatchTable::LatchSet heap_latch_;
  /// This scan's buffer sentinel, exclusive, Open → Close.
  std::unique_lock<std::shared_mutex> sentinel_;
  std::vector<Rid> probe_rids_;
  std::vector<Rid> scan_rids_;
  size_t probe_cursor_ = 0;
  size_t scan_cursor_ = 0;
  Stage stage_ = Stage::kProbe;
};

/// Applies residual conjuncts to rid batches whose tuples are not read
/// yet (index/buffer probe output): liveness-fetches the selected rids
/// with the residual columns as lanes, keeps matching rids. The fetched
/// pages are charged here (query-wide deduped), so the emitted batch needs
/// no further fetch. Scans never need a Filter — the planner pushes
/// residuals into their batch kernel for free.
class Filter : public PhysicalOperator {
 public:
  Filter(std::unique_ptr<PhysicalOperator> child, const Table* table,
         std::vector<ColumnPredicate> predicates);

  std::string Name() const override { return "Filter"; }
  std::string Describe() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(TupleBatch* out) override;
  Status Close() override;
  std::vector<const PhysicalOperator*> Children() const override;

 private:
  std::unique_ptr<PhysicalOperator> child_;
  const Table* table_;
  std::vector<ColumnPredicate> predicates_;
  /// predicates_[i].column, the lanes the fetch fills.
  std::vector<ColumnId> columns_;
  ExecContext* ctx_ = nullptr;
  /// Reused per batch: the child's batch, the fetched lanes and the
  /// selection over them.
  TupleBatch input_;
  std::vector<std::vector<Value>> lanes_;
  std::vector<uint32_t> sel_;
};

/// Root of probe-shaped plans: pulls child batches and liveness-fetches
/// the selected rids that need it (HeapFile::FetchLive, no Tuple built),
/// charging distinct pages query-wide.
class Materialize : public PhysicalOperator {
 public:
  explicit Materialize(std::unique_ptr<PhysicalOperator> child);

  std::string Name() const override { return "Materialize"; }
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(TupleBatch* out) override;
  Status Close() override;
  std::vector<const PhysicalOperator*> Children() const override;

 private:
  std::unique_ptr<PhysicalOperator> child_;
  ExecContext* ctx_ = nullptr;
};

/// True iff `tuple` satisfies every predicate in `predicates`.
bool MatchesAll(const Tuple& tuple, const Schema& schema,
                const std::vector<ColumnPredicate>& predicates);

/// "colN = v" / "colN ∈ [lo,hi]" rendering joined with " AND ".
std::string PredicatesToString(const std::vector<ColumnPredicate>& predicates);

}  // namespace aib

#endif  // AIB_EXEC_OPERATORS_H_
