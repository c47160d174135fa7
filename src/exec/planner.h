#ifndef AIB_EXEC_PLANNER_H_
#define AIB_EXEC_PLANNER_H_

#include <map>
#include <memory>

#include "core/buffer_space.h"
#include "exec/plan.h"
#include "exec/query.h"
#include "exec/statement.h"
#include "index/partial_index.h"

namespace aib {

/// Maps a Statement to a physical operator tree. DML becomes a write
/// operator; a select's Query goes through access-path selection (§II/§III):
///
///   - a conjunct fully covered by its column's partial index drives a
///     PartialIndexProbe; remaining conjuncts become a residual Filter;
///   - otherwise the first indexed conjunct drives an IndexingTableScan
///     (Algorithm 1) when an Index Buffer Space is configured — with a
///     hybrid CoveredOnSkippedFetch tail when the driving range partially
///     overlaps the coverage — residuals pushed into the scan and filtered
///     above the probe legs;
///   - no usable index (or no space on a miss): a FullTableScan evaluating
///     the whole conjunction.
///
/// The planner is stateless and cheap; the returned plan is single-use.
class Planner {
 public:
  /// `space` may be null (no Index Buffer configured). Does not own
  /// anything; `indexes` is the executor's registry, borrowed per call.
  Planner(Table* table, IndexBufferSpace* space,
          IndexBufferOptions buffer_options)
      : table_(table), space_(space), buffer_options_(buffer_options) {}

  /// Statement planning: selects go through access-path selection (Plan);
  /// Insert/Update/Delete become single-operator write plans
  /// (InsertOp/UpdateOp/DeleteOp) rooted directly — the operator owns the
  /// whole mutation including its Table I maintenance.
  std::unique_ptr<PhysicalPlan> PlanStatement(
      const Statement& statement,
      const std::map<ColumnId, PartialIndex*>& indexes) const;

 private:
  /// Access-path selection for a select's query.
  std::unique_ptr<PhysicalPlan> Plan(
      const Query& query,
      const std::map<ColumnId, PartialIndex*>& indexes) const;

  /// Full table scan of the whole conjunction: no usable index, or a miss
  /// without an Index Buffer Space.
  std::unique_ptr<PhysicalPlan> PlanFullScan(const Query& query) const;

  /// Covered plan: Materialize <- [Filter <-] PartialIndexProbe.
  std::unique_ptr<PhysicalPlan> PlanCoveredProbe(
      PartialIndex* index, const ColumnPredicate& driver,
      std::vector<ColumnPredicate> residuals) const;

  /// Miss plan: Materialize <- IndexingTableScan (Algorithm 1), hybrid
  /// tail when the driving range intersects the coverage.
  std::unique_ptr<PhysicalPlan> PlanIndexingScan(
      PartialIndex* index, const ColumnPredicate& driver,
      std::vector<ColumnPredicate> residuals) const;

  Table* table_;
  IndexBufferSpace* space_;
  IndexBufferOptions buffer_options_;
};

}  // namespace aib

#endif  // AIB_EXEC_PLANNER_H_
