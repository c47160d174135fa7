#include "exec/executor.h"

#include <mutex>
#include <shared_mutex>

namespace aib {

Executor::Executor(Table* table, IndexBufferSpace* space,
                   CostModelOptions cost_options, Metrics* metrics)
    : table_(table),
      space_(space),
      cost_model_(cost_options),
      metrics_(metrics),
      planner_(table, space, IndexBufferOptions{}) {}

void Executor::RegisterIndex(PartialIndex* index) {
  indexes_[index->column()] = index;
}

PartialIndex* Executor::GetIndex(ColumnId column) const {
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second;
}

void Executor::SetBufferOptions(IndexBufferOptions options) {
  planner_ = Planner(table_, space_, options);
}

Result<StatementResult> Executor::ExecutePlan(PhysicalPlan* plan,
                                              const QueryControl* control) {
  // Statement membrane, shared for reads and DML alike: it only excludes
  // quiesce points (tuner adaptation, snapshots, audits). All mutual
  // exclusion between statements happens in the partition-granular latches
  // the operators acquire themselves.
  std::shared_lock<std::shared_mutex> membrane(stmt_latch_);
  if (plan->driver_index() != nullptr && space_ != nullptr) {
    // Table II history updates are self-synchronized per buffer (history
    // locks); no space latch needed.
    space_->OnQuery(plan->driver_index(), plan->driver_hit());
  }
  Result<StatementResult> result =
      plan->Run(cost_model_, control, dispatcher_, parallel_options_);
  if (metrics_ != nullptr) {
    if (!result.ok() && result.status().IsTimeout()) {
      metrics_->Increment(kMetricQueriesTimedOut);
    } else if (!result.ok() && result.status().IsCancelled()) {
      metrics_->Increment(kMetricQueriesCancelled);
    } else if (result.ok() && result.value().stats.degraded) {
      metrics_->Increment(kMetricDegradedQueries);
    }
    if (result.ok() && plan->IsDml()) {
      metrics_->Increment(kMetricDmlStatements);
    }
    if (result.ok() && result.value().stats.pages_scanned > 0) {
      // Numerator of the page-reuse ratio: every page a scan consumed,
      // whether it came from disk or was already buffered.
      metrics_->Increment(kMetricScanPagesServed,
                          static_cast<int64_t>(
                              result.value().stats.pages_scanned));
    }
  }
  return result;
}

std::unique_ptr<PhysicalPlan> Executor::PlanStatement(
    const Statement& statement) const {
  return planner_.PlanStatement(statement, indexes_);
}

Result<StatementResult> Executor::ExecuteStatement(
    const Statement& statement, const QueryControl* control) {
  return ExecutePlan(PlanStatement(statement).get(), control);
}

}  // namespace aib
