#ifndef AIB_SERVICE_QUERY_SERVICE_H_
#define AIB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_control.h"
#include "common/result.h"
#include "exec/executor.h"
#include "exec/morsel.h"
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
  /// Deadline applied to every statement submitted without an explicit one.
  /// Zero = unbounded. The clock starts at submission, so queue time counts
  /// against the budget.
  std::chrono::milliseconds default_deadline{0};
  /// Whole-query retries when execution fails with a transient status or
  /// corruption. Re-running is always safe: the adaptive state is
  /// recovery-free and each run re-plans from current coverage.
  size_t max_query_retries = 3;
  /// Intra-query scan parallelism: workers (including the executing
  /// thread) a single scan fans its morsels out to. 0 or 1 = serial scans.
  /// The service owns the MorselDispatcher and wires it into the Executor;
  /// the dispatcher's helper pool is separate from num_workers on purpose
  /// (service workers can block on scan sentinels — see exec/morsel.h).
  /// Results and cost-model stats are identical to serial for any value.
  size_t scan_workers = 0;
  /// Options for the morsel-parallel scan path when scan_workers > 1.
  ParallelScanOptions parallel_scan;
};

/// Per-submission overrides for deadlines and cancellation.
struct SubmitOptions {
  /// Zero = use the service's default_deadline.
  std::chrono::milliseconds deadline{0};
  /// When set, flipping the token cancels the query cooperatively (before
  /// execution or at the next batch/page boundary).
  CancelToken cancel;
};

/// Point-in-time service counters (monotonic since construction).
struct QueryServiceStats {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t executed = 0;
  int64_t timed_out = 0;
  int64_t cancelled = 0;
  /// Whole-statement retries performed after transient/corruption failures.
  int64_t retried = 0;
  /// Queries answered through the degraded plain-scan path.
  int64_t degraded = 0;
  /// Successfully executed DML statements (subset of `executed`).
  int64_t dml_executed = 0;
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
/// retry path.
///
/// Tuner-driven coverage adaptation remains outside the service (facade
/// only; see Executor's thread-safety contract). Shutdown (or destruction)
/// stops admission — late Submits are rejected with Cancelled — drains
/// already-accepted requests, and joins the workers, so every future
/// obtained from Submit becomes ready.
class QueryService {
 public:
  /// Does not own `executor` or `metrics`. Scans run over the executor's
  /// own table.
  explicit QueryService(Executor* executor, QueryServiceOptions options = {},
                        Metrics* metrics = nullptr);

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
  QueryServiceStats stats() const;
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

  /// Tallies timed_out/cancelled/degraded for one finished request.
  void RecordOutcome(const Status& status, bool degraded);

  Executor* executor_;
  QueryServiceOptions options_;
  Metrics* metrics_;  // not owned; may be null
  /// Owned helper pool for morsel-parallel scans (scan_workers > 1); wired
  /// into the Executor at construction, unwired at Shutdown.
  std::unique_ptr<MorselDispatcher> dispatcher_;
  SharedScanManager scans_;
  BoundedQueue<Request> queue_;
  /// Serializes concurrent Shutdown calls around the joins.
  std::mutex join_mu_;
  std::vector<std::thread> workers_;
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> executed_{0};
  std::atomic<int64_t> timed_out_{0};
  std::atomic<int64_t> cancelled_{0};
  std::atomic<int64_t> retried_{0};
  std::atomic<int64_t> degraded_{0};
  std::atomic<int64_t> dml_executed_{0};
};

}  // namespace aib

#endif  // AIB_SERVICE_QUERY_SERVICE_H_
