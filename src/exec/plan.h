#ifndef AIB_EXEC_PLAN_H_
#define AIB_EXEC_PLAN_H_

#include <memory>
#include <string>

#include "exec/cost_model.h"
#include "exec/operator.h"
#include "exec/query.h"
#include "exec/statement.h"
#include "index/partial_index.h"

namespace aib {

/// An executable physical plan: an operator tree plus the metadata the
/// executor facade needs (which index drives the plan and whether it was a
/// partial-index hit — the Table II history dispatch). Single-use: Run()
/// executes once; ExplainPlan() may be called before (structure only,
/// zeroed stats) or after Run (structure + per-operator stats).
class PhysicalPlan {
 public:
  PhysicalPlan(std::unique_ptr<PhysicalOperator> root, const Table* table);

  const PhysicalOperator& root() const { return *root_; }
  const Table* table() const { return table_; }

  /// Access-path flags copied into QueryStats by Run().
  void SetUsedPartialIndex(bool used) { used_partial_index_ = used; }
  void SetUsedIndexBuffer(bool used) { used_index_buffer_ = used; }

  /// What kind of statement this plan executes (selects by default). Run
  /// reports the rows a DML plan affected in `rows_affected`.
  void SetStatementKind(StatementKind kind) { statement_kind_ = kind; }
  StatementKind statement_kind() const { return statement_kind_; }
  bool IsDml() const { return statement_kind_ != StatementKind::kSelect; }

  /// The partial index of the driving predicate (null when the plan full
  /// scans an unindexed conjunction) and whether its coverage fully
  /// contains the driving predicate.
  void SetDriver(PartialIndex* index, bool hit) {
    driver_index_ = index;
    driver_hit_ = hit;
  }
  PartialIndex* driver_index() const { return driver_index_; }
  bool driver_hit() const { return driver_hit_; }

  /// Opens, drains, and closes the operator tree; aggregates per-operator
  /// stats into QueryStats and prices them through `cost_model`; sets
  /// `rows_affected` from the statement kind. Close is guaranteed on error
  /// paths (latch scopes release). `control`, when non-null, is checked
  /// before Open and before every root NextBatch, so an over-budget or
  /// cancelled query stops at the next batch boundary with
  /// Timeout/Cancelled instead of draining the plan. `dispatcher`,
  /// when non-null, enables morsel-parallel scans with the given options;
  /// results and cost-model stats are identical to the serial run.
  Result<StatementResult> Run(const CostModel& cost_model,
                              const QueryControl* control = nullptr,
                              MorselDispatcher* dispatcher = nullptr,
                              const ParallelScanOptions& parallel = {});

  bool executed() const { return executed_; }

 private:
  std::unique_ptr<PhysicalOperator> root_;
  const Table* table_;
  StatementKind statement_kind_ = StatementKind::kSelect;
  PartialIndex* driver_index_ = nullptr;
  bool driver_hit_ = false;
  bool used_partial_index_ = false;
  bool used_index_buffer_ = false;
  bool executed_ = false;
};

/// Renders the plan's operator tree with per-operator statistics:
///
///   Materialize  [rows=7 pages_fetched=7]
///   `- IndexingTableScan(col0 = 500)  [rows=7 scanned=55 skipped=0 ...]
///      `- IndexBufferProbe(col0 = 500)  [rows=0 probes=1]
///
/// Counters are zero before Run(); call after execution for the per-
/// operator pages/probes/rows the figures and the shell's `explain`
/// command report.
std::string ExplainPlan(const PhysicalPlan& plan);

}  // namespace aib

#endif  // AIB_EXEC_PLAN_H_
