#include "service/query_service.h"

#include "service/shared_scan_operator.h"

namespace aib {

QueryService::QueryService(Executor* executor, QueryServiceOptions options)
    : executor_(executor),
      options_(options),
      metrics_(executor->metrics()),
      scans_(metrics_),
      queue_(options.queue_capacity) {
  size_t workers = options_.num_workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  queue_.Close();
  std::lock_guard<std::mutex> lock(join_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

Result<std::future<Result<StatementResult>>> QueryService::Submit(
    const Statement& statement, const SubmitOptions& submit) {
  Request request;
  request.statement = statement;
  if (submit.deadline.count() > 0) {
    request.control = QueryControl::WithDeadline(submit.deadline);
  }
  request.control.cancel = submit.cancel;
  std::future<Result<StatementResult>> future = request.promise.get_future();
  switch (queue_.TryPush(std::move(request))) {
    case PushResult::kClosed:
      // A statement arriving after shutdown began is Cancelled, never
      // silently dropped or half-admitted.
      return Status::Cancelled("query service is shut down");
    case PushResult::kFull:
      if (metrics_ != nullptr) metrics_->Increment(kMetricServiceRejected);
      return Status::Busy("admission queue full");
    case PushResult::kOk:
      break;
  }
  if (metrics_ != nullptr) metrics_->Increment(kMetricServiceSubmitted);
  return future;
}

Result<StatementResult> QueryService::ExecuteStatement(
    const Statement& statement) {
  AIB_ASSIGN_OR_RETURN(std::future<Result<StatementResult>> future,
                       Submit(statement));
  return future.get();
}

void QueryService::WorkerLoop() {
  while (std::optional<Request> request = queue_.Pop()) {
    // Pre-execution short-circuit: a request that timed out in the queue
    // or was cancelled before a worker reached it resolves immediately —
    // the worker spends nothing on it. These are the only Timeout/
    // Cancelled outcomes the *service* adds to the metrics registry; the
    // Executor accounts the ones that strike mid-execution.
    const Status admitted = request->control.Check();
    if (!admitted.ok() && metrics_ != nullptr) {
      metrics_->Increment(admitted.IsTimeout() ? kMetricQueriesTimedOut
                                               : kMetricQueriesCancelled);
    }
    Result<StatementResult> result =
        admitted.ok() ? Run(request->statement, &request->control)
                      : Result<StatementResult>(admitted);
    // Count before publishing: a caller woken by the future must already
    // see this request in service.queries_executed.
    if (metrics_ != nullptr) metrics_->Increment(kMetricServiceExecuted);
    request->promise.set_value(std::move(result));
  }
}

Result<StatementResult> QueryService::Run(const Statement& statement,
                                          const QueryControl* control) {
  // A fully unindexed select is a guaranteed full table scan, the case
  // where concurrent statements would otherwise each pay a whole pass. It
  // runs the cooperative scan operator in place of FullTableScan; the
  // result matches the executor's (same stats shape, same cost), rid order
  // differing only when the scan attached mid-pass.
  bool shared_scan =
      options_.shared_scans && statement.kind == StatementKind::kSelect;
  if (shared_scan) {
    for (const ColumnPredicate& pred : statement.query.AllPredicates()) {
      if (executor_->GetIndex(pred.column) != nullptr) shared_scan = false;
    }
  }
  auto attempt = [&]() -> Result<StatementResult> {
    if (!shared_scan) return executor_->ExecuteStatement(statement, control);
    const Table* table = executor_->table();
    PhysicalPlan plan(std::make_unique<SharedScanOperator>(
                          &scans_, table, statement.query.AllPredicates()),
                      table);
    // The same run as every plan: the statement membrane held shared, and
    // the outcome counted in the executor's registry. Mutual exclusion
    // against DML comes from the heap stripes the shared-scan operator
    // latches.
    return executor_->ExecutePlan(&plan, control);
  };
  Result<StatementResult> result = attempt();
  for (size_t retry = 0; retry < options_.max_query_retries; ++retry) {
    if (result.ok()) break;
    const Status& status = result.status();
    // Transient shortages and corruption are retried whole-statement: the
    // recovery-free property makes a re-plan from current coverage always
    // valid, fault redraws are independent, and a failed DML statement has
    // mutated nothing (exec/dml_operators.h). Timeout/Cancelled are final.
    if (!status.IsTransient() && !status.IsCorruption()) break;
    if (control != nullptr && !control->Check().ok()) break;
    if (metrics_ != nullptr) metrics_->Increment(kMetricServiceRetried);
    std::this_thread::yield();
    result = attempt();
  }
  return result;
}

}  // namespace aib
