#ifndef AIB_EXEC_EXECUTOR_H_
#define AIB_EXEC_EXECUTOR_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/result.h"
#include "core/buffer_space.h"
#include "exec/cost_model.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "exec/statement.h"
#include "index/partial_index.h"
#include "storage/table.h"

namespace aib {

/// The statement front door of one table: a thin facade over the Planner
/// and physical-plan execution. A Statement is the one unit of work; for a
/// select the planner picks the access path (§II/§III):
///
///   - predicate fully covered by a column's partial index -> index probe
///     (+ residual Filter for conjunctions);
///   - predicate disjoint from the coverage -> indexing table scan
///     (Algorithm 1) when an Index Buffer Space is configured, else a plain
///     full scan;
///   - range predicate partially covered -> hybrid: indexing table scan for
///     the uncovered population plus partial-index fetch restricted to
///     skipped pages (scanned pages already yielded their covered matches).
///
/// Insert/Update/Delete plan into write operators (exec/dml_operators.h).
/// ExecuteStatement is PlanStatement + ExecutePlan in one call; callers
/// needing the plan itself (EXPLAIN, tracing) call the two halves.
/// ExecutePlan dispatches the Table II history update of every plan.
///
/// Thread-safety: ExecuteStatement and ExecutePlan may be called from
/// concurrent QueryService workers once setup (RegisterIndex /
/// SetBufferOptions) is complete. Since the partition-granular refactor the
/// executor's statement latch is a *shared-only membrane*: every
/// statement — reads AND DML — holds it shared for its duration, so
/// statements never exclude each other here. Mutual exclusion moved down
/// into partition-granular latches the operators take themselves, in this
/// global order:
///
///   1. statement membrane (shared; exclusive only for quiesce points:
///      tuner adaptation via Catalog::ExecuteStatement, snapshots,
///      consistency audits, test/bench samplers);
///   2. IndexBufferSpace structural latch — exclusive during an indexing
///      scan's Open only (buffer creation, Algorithm 2, quarantine);
///   3. heap page stripe latches (Table::page_latches()) — all-shared for
///      scans, exclusive per mutated page for DML, shared per probed page
///      for covered probes;
///   4. per-buffer scan sentinels (IndexBuffer::scan_latch()) — exclusive
///      for the buffer an indexing scan fills, shared for the buffers a
///      DML statement maintains.
///
/// Writers on different pages of one buffer partition take no common
/// latch: the structures they share synchronize themselves (see
/// DmlOperator).
///
/// Table II history updates are self-synchronized per buffer and need no
/// space latch. See docs/ALGORITHMS.md for the full discipline and the
/// optimistic covered-probe protocol.
class Executor {
 public:
  /// `table` is the table statements read and write. `space` may be null
  /// (no Index Buffer configured). Does not own anything.
  Executor(Table* table, IndexBufferSpace* space,
           CostModelOptions cost_options = {}, Metrics* metrics = nullptr);

  /// The table the executor was built over.
  const Table* table() const { return table_; }

  /// Registers the partial index for its column. One index per column.
  void RegisterIndex(PartialIndex* index);

  /// The statement membrane (see class comment). Every statement holds it
  /// shared; exclusive acquisition is reserved for quiesce points — tuner
  /// adaptation (Catalog::ExecuteStatement), snapshots, consistency audits,
  /// and test/bench samplers that need the engine statement-free. First in
  /// the latch order, before the space structural latch and all
  /// partition-granular latches.
  std::shared_mutex& statement_latch() const { return stmt_latch_; }

  PartialIndex* GetIndex(ColumnId column) const;

  /// Options used when an Index Buffer is lazily created on the first
  /// partial-index miss of a column.
  void SetBufferOptions(IndexBufferOptions options);

  /// The registry every statement outcome is counted in (null when the
  /// executor was built without one). Not owned.
  Metrics* metrics() const { return metrics_; }

  /// Enables morsel-parallel scans for every execution through this
  /// facade. `dispatcher` is borrowed and must outlive the Executor; null
  /// reverts to serial scans. Results and cost-model stats are identical
  /// to serial execution for any worker count (see exec/morsel.h).
  void SetParallelScan(MorselDispatcher* dispatcher,
                       ParallelScanOptions options = {}) {
    dispatcher_ = dispatcher;
    parallel_options_ = options;
  }

  MorselDispatcher* parallel_dispatcher() const { return dispatcher_; }
  const ParallelScanOptions& parallel_options() const {
    return parallel_options_;
  }

  /// Plans `statement` (selects via access-path selection, DML into write
  /// operators). The plan is single-use: run it through ExecutePlan, then
  /// render with ExplainPlan(*plan).
  std::unique_ptr<PhysicalPlan> PlanStatement(const Statement& statement)
      const;

  /// Executes a plan obtained from PlanStatement, dispatching the Table II
  /// history update for the plan's driving index. Holds the statement
  /// membrane shared for the run — reads and DML alike; the operators take
  /// their own partition-granular latches. `control`, when non-null,
  /// imposes the caller's deadline/cancellation on the execution
  /// (timed-out and cancelled executions are counted in the metrics).
  Result<StatementResult> ExecutePlan(PhysicalPlan* plan,
                                      const QueryControl* control = nullptr);

  /// PlanStatement + ExecutePlan: the one way to run a statement, and the
  /// single maintenance code path every front end delegates to.
  Result<StatementResult> ExecuteStatement(const Statement& statement,
                                           const QueryControl* control =
                                               nullptr);

 private:
  Table* table_;
  IndexBufferSpace* space_;
  CostModel cost_model_;
  Metrics* metrics_;
  Planner planner_;
  std::map<ColumnId, PartialIndex*> indexes_;
  MorselDispatcher* dispatcher_ = nullptr;
  ParallelScanOptions parallel_options_;
  /// Shared-only statement membrane (exclusive = quiesce; see class
  /// comment). Mutable: latching is not a logical mutation.
  mutable std::shared_mutex stmt_latch_;
};

}  // namespace aib

#endif  // AIB_EXEC_EXECUTOR_H_
