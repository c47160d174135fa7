#ifndef AIB_SERVICE_QUERY_SERVICE_H_
#define AIB_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_control.h"
#include "common/result.h"
#include "exec/executor.h"
#include "service/bounded_queue.h"
#include "service/shared_scan_manager.h"

namespace aib {

struct QueryServiceOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency(). 1 gives the
  /// deterministic mode: FIFO execution, results identical to calling
  /// Executor::ExecuteStatement in submission order.
  size_t num_workers = 4;
  /// Admission bound: Submit rejects with Busy once this many requests are
  /// queued (backpressure instead of unbounded growth).
  size_t queue_capacity = 256;
  /// Merge concurrent full table scans through the SharedScanManager.
  /// Applies to queries on columns with no partial index; adaptive
  /// indexing scans always run solo per buffer, serialized by the
  /// buffer's scan sentinel.
  bool shared_scans = true;
  /// Whole-query retries when execution fails with a transient status or
  /// corruption. Re-running is always safe: the adaptive state is
  /// recovery-free and each run re-plans from current coverage.
  size_t max_query_retries = 3;
};

/// Per-submission overrides for deadlines and cancellation.
struct SubmitOptions {
  /// Budget from submission, queue time included. Zero = unbounded.
  std::chrono::milliseconds deadline{0};
  /// When set, flipping the token cancels the query cooperatively (before
  /// execution or at the next batch/page boundary).
  CancelToken cancel;
};

/// The concurrent statement front-end: a worker thread pool over a bounded
/// admission queue. Callers Submit Statements (Select | Insert | Update |
/// Delete) and collect results through futures; workers run them through
/// Executor::ExecuteStatement, except that full scans of unindexed columns
/// are merged by a SharedScanManager so overlapping scans cost about one
/// pass of page reads. Every statement holds the executor's statement
/// membrane shared, reads and DML alike; statements exclude each other only
/// in the partition-granular latches the operators take (see Executor), so
/// mixed read/write traffic shares one admission, deadline, cancel, and
/// retry path. Morsel-parallel scans are the executor's setting
/// (Executor::SetParallelScan); the service runs whatever it is given.
///
/// Counting: each outcome is counted once, in the executor's Metrics
/// registry (Executor::metrics(); nothing when it has none). The service
/// counts service.queries_{submitted,rejected,executed,retried} and the
/// Timeout/Cancelled of requests that expire in the queue; the executor
/// counts mid-run Timeout/Cancelled under the same names, plus
/// exec.degraded_queries and exec.dml_statements.
///
/// Tuner-driven coverage adaptation remains outside the service (facade
/// only; see Executor's thread-safety contract). Shutdown (or destruction)
/// stops admission — late Submits are rejected with Cancelled — drains
/// already-accepted requests, and joins the workers, so every future
/// obtained from Submit becomes ready.
class QueryService {
 public:
  /// Does not own `executor`. Scans run over the executor's own table, and
  /// outcomes are counted in its metrics registry.
  explicit QueryService(Executor* executor, QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  ~QueryService();

  /// Enqueues a statement (read or DML). Returns Busy when the admission
  /// queue is full (the caller may retry after a backoff) or Cancelled
  /// after Shutdown. A statement whose deadline expires (queueing
  /// included) or whose cancel token is set resolves its future with
  /// Timeout/Cancelled — the worker moves on, it never hangs on it.
  /// Transient failures are retried whole-statement (safe for DML: a
  /// failed statement has mutated nothing — see exec/dml_operators.h).
  Result<std::future<Result<StatementResult>>> Submit(
      const Statement& statement, const SubmitOptions& submit = {});

  /// Convenience: Submit and wait. Still goes through admission; callers
  /// sharing the service with Submit traffic see FIFO ordering.
  Result<StatementResult> ExecuteStatement(const Statement& statement);

  /// Stops admission, drains the queue, joins all workers. Idempotent;
  /// called by the destructor.
  void Shutdown();

  size_t num_workers() const { return workers_.size(); }
  const QueryServiceOptions& options() const { return options_; }
  SharedScanManager& shared_scans() { return scans_; }

 private:
  struct Request {
    Statement statement;
    QueryControl control;
    std::promise<Result<StatementResult>> promise;
  };

  void WorkerLoop();

  /// Executes one statement on the calling worker: a shared full scan for
  /// a fully unindexed select (when enabled), Executor::ExecuteStatement
  /// otherwise. Retries transient/corruption failures up to
  /// max_query_retries times.
  Result<StatementResult> Run(const Statement& statement,
                              const QueryControl* control);

  Executor* executor_;
  QueryServiceOptions options_;
  Metrics* metrics_;  // the executor's; not owned, may be null
  SharedScanManager scans_;
  BoundedQueue<Request> queue_;
  /// Serializes concurrent Shutdown calls around the joins.
  std::mutex join_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace aib

#endif  // AIB_SERVICE_QUERY_SERVICE_H_
