#include "exec/planner.h"

#include <utility>

#include "exec/dml_operators.h"
#include "exec/operators.h"

namespace aib {

namespace {

PartialIndex* FindIndex(const std::map<ColumnId, PartialIndex*>& indexes,
                        ColumnId column) {
  auto it = indexes.find(column);
  return it == indexes.end() ? nullptr : it->second;
}

/// Splits `preds` into the conjunct at `driver_pos` and the rest.
std::pair<ColumnPredicate, std::vector<ColumnPredicate>> SplitDriver(
    const std::vector<ColumnPredicate>& preds, size_t driver_pos) {
  std::vector<ColumnPredicate> residuals;
  residuals.reserve(preds.size() - 1);
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i != driver_pos) residuals.push_back(preds[i]);
  }
  return {preds[driver_pos], std::move(residuals)};
}

}  // namespace

std::unique_ptr<PhysicalPlan> Planner::PlanCoveredProbe(
    PartialIndex* index, const ColumnPredicate& driver,
    std::vector<ColumnPredicate> residuals) const {
  std::unique_ptr<PhysicalOperator> pipeline =
      std::make_unique<PartialIndexProbe>(index, driver.lo, driver.hi);
  if (!residuals.empty()) {
    pipeline = std::make_unique<Filter>(std::move(pipeline), table_,
                                        std::move(residuals));
  }
  auto plan = std::make_unique<PhysicalPlan>(
      std::make_unique<Materialize>(std::move(pipeline)), table_);
  plan->SetUsedPartialIndex(true);
  plan->SetDriver(index, /*hit=*/true);
  return plan;
}

std::unique_ptr<PhysicalPlan> Planner::PlanIndexingScan(
    PartialIndex* index, const ColumnPredicate& driver,
    std::vector<ColumnPredicate> residuals) const {
  // The probe leg: buffer matches live on skipped pages, so conjunctive
  // residuals are applied by a Filter above the probe (the tuples must be
  // fetched to evaluate them anyway).
  auto probe = std::make_unique<IndexBufferProbe>(driver.column, driver.lo,
                                                  driver.hi);
  IndexBufferProbe* probe_raw = probe.get();
  std::unique_ptr<PhysicalOperator> probe_pipeline = std::move(probe);
  if (!residuals.empty()) {
    probe_pipeline =
        std::make_unique<Filter>(std::move(probe_pipeline), table_, residuals);
  }

  // Hybrid tail for range predicates that overlap the coverage: covered
  // matches on *skipped* pages come from the partial index (scanned pages
  // already yielded theirs during the table scan).
  const bool hybrid =
      !index->coverage().CoversRange(driver.lo, driver.hi) &&
      index->coverage().IntersectsRange(driver.lo, driver.hi);
  std::shared_ptr<std::vector<bool>> snapshot;
  std::unique_ptr<PhysicalOperator> tail_pipeline;
  if (hybrid) {
    snapshot = std::make_shared<std::vector<bool>>();
    tail_pipeline = std::make_unique<CoveredOnSkippedFetch>(
        index, table_, driver.lo, driver.hi, snapshot);
    if (!residuals.empty()) {
      tail_pipeline = std::make_unique<Filter>(std::move(tail_pipeline),
                                               table_, residuals);
    }
  }

  std::vector<ColumnPredicate> scan_predicates;
  scan_predicates.reserve(1 + residuals.size());
  scan_predicates.push_back(driver);
  scan_predicates.insert(scan_predicates.end(), residuals.begin(),
                         residuals.end());
  auto scan = std::make_unique<IndexingTableScan>(
      table_, space_, index, buffer_options_, std::move(scan_predicates),
      std::move(probe_pipeline), probe_raw, std::move(tail_pipeline),
      std::move(snapshot));
  auto plan = std::make_unique<PhysicalPlan>(
      std::make_unique<Materialize>(std::move(scan)), table_);
  plan->SetUsedIndexBuffer(true);
  plan->SetDriver(index, /*hit=*/false);
  return plan;
}

std::unique_ptr<PhysicalPlan> Planner::PlanFullScan(
    const Query& query) const {
  return std::make_unique<PhysicalPlan>(
      std::make_unique<FullTableScan>(table_, query.AllPredicates()), table_);
}

std::unique_ptr<PhysicalPlan> Planner::Plan(
    const Query& query,
    const std::map<ColumnId, PartialIndex*>& indexes) const {
  const std::vector<ColumnPredicate> preds = query.AllPredicates();

  // 1. A fully covered conjunct answers from the partial index; the rest
  //    of the conjunction is a residual Filter. The primary predicate is
  //    preferred (it comes first), preserving the single-predicate paths.
  for (size_t i = 0; i < preds.size(); ++i) {
    PartialIndex* index = FindIndex(indexes, preds[i].column);
    if (index != nullptr &&
        index->coverage().CoversRange(preds[i].lo, preds[i].hi)) {
      auto [driver, residuals] = SplitDriver(preds, i);
      return PlanCoveredProbe(index, driver, std::move(residuals));
    }
  }

  // 2. First indexed conjunct drives the adaptive miss path (Algorithm 1)
  //    when a space exists.
  for (size_t i = 0; i < preds.size(); ++i) {
    PartialIndex* index = FindIndex(indexes, preds[i].column);
    if (index == nullptr) continue;
    if (space_ == nullptr) {
      // No Index Buffer configured: a miss degenerates to a full scan,
      // but the Table II dispatch still sees the miss on this index.
      auto plan = PlanFullScan(query);
      plan->SetDriver(index, /*hit=*/false);
      return plan;
    }
    auto [driver, residuals] = SplitDriver(preds, i);
    return PlanIndexingScan(index, driver, std::move(residuals));
  }

  // 3. No usable index anywhere in the conjunction.
  return PlanFullScan(query);
}

std::unique_ptr<PhysicalPlan> Planner::PlanStatement(
    const Statement& statement,
    const std::map<ColumnId, PartialIndex*>& indexes) const {
  if (statement.kind == StatementKind::kSelect) {
    return Plan(statement.query, indexes);
  }
  // `indexes` is the executor's registry; its address stays valid for the
  // single-use plan's lifetime (plans execute immediately).
  std::unique_ptr<PhysicalOperator> root;
  switch (statement.kind) {
    case StatementKind::kInsert:
      root = std::make_unique<InsertOp>(table_, space_, &indexes,
                                        statement.tuple);
      break;
    case StatementKind::kUpdate:
      root = std::make_unique<UpdateOp>(table_, space_, &indexes,
                                        statement.target, statement.tuple);
      break;
    case StatementKind::kDelete:
      root = std::make_unique<DeleteOp>(table_, space_, &indexes,
                                        statement.target);
      break;
    case StatementKind::kSelect:
      return nullptr;  // unreachable
  }
  auto plan = std::make_unique<PhysicalPlan>(std::move(root), table_);
  plan->SetStatementKind(statement.kind);
  return plan;
}

}  // namespace aib
