#ifndef AIB_SHARD_SCATTER_GATHER_H_
#define AIB_SHARD_SCATTER_GATHER_H_

#include <chrono>
#include <future>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "exec/operator.h"
#include "exec/statement.h"
#include "service/query_service.h"
#include "shard/shard.h"
#include "shard/shard_fault.h"
#include "shard/shard_health.h"

namespace aib {

/// One scatter leg: the shard a statement fans out to. The operator holds
/// the node's restart latch (shared) from Open to Close and reaches its
/// service only under it, so a concurrent warm restart can never swap the
/// service out from under an in-flight leg.
struct ScatterLeg {
  size_t shard = 0;
  Shard* node = nullptr;
};

/// Fault-tolerance knobs of one scatter-gather execution. All pointers
/// are optional and not owned; a default-constructed ScatterOptions gives
/// the plain gather (no breaker, no hedging, no injection).
struct ScatterOptions {
  /// Re-dispatches of a failed leg (transient/corruption) before the
  /// whole statement fails.
  size_t max_leg_retries = 3;
  /// Skip open-circuit legs instead of failing the statement; the merged
  /// stats carry the `degraded` marker and skipped shards are reported.
  bool allow_partial = false;
  /// Duplicate dispatches allowed per statement once a leg exceeds its
  /// shard's hedge delay; 0 disables hedging.
  size_t hedge_budget = 0;
  /// Seed of the Busy-admission backoff jitter.
  uint64_t backoff_seed = 1;
  BackoffPolicy busy_backoff;
  /// Shard outage script (crash/hang/brownout), consulted per dispatch.
  ShardFaultInjector* faults = nullptr;
  /// Per-shard circuit breakers + hedge-delay quantiles.
  ShardHealthTracker* health = nullptr;
  /// Sink for hedge/skip counters (typically the router's registry).
  Metrics* metrics = nullptr;
};

/// The scatter-gather physical operator: dispatches one Select statement
/// to every target shard's QueryService, then streams the gathered
/// results up through the standard Open / NextBatch / Close protocol —
/// legs are drained in ascending shard order and each emitted TupleBatch
/// holds rids of exactly one shard (exposed via current_shard()), so the
/// gather side can tag GlobalRids batch-at-a-time.
///
/// Fault handling is per leg, reusing the shard services' own
/// deadline/cancel/retry machinery and re-dispatching on top of it: a leg
/// that fails with a transient status (Busy admission, exhausted
/// in-service retries) or corruption is re-submitted to its shard alone —
/// the other legs' results are kept, nothing re-executes fleet-wide. Leg
/// Timeout/Cancelled outcomes are final, exactly as for single-node
/// statements.
///
/// On top of that, when ScatterOptions wires in the fleet health layer:
/// every dispatch consults the shard's circuit breaker (open circuit →
/// fail fast with Unavailable, or skip the leg under allow_partial) and
/// the outage injector (crash/hang/brownout); leg outcomes feed back into
/// the breaker's rolling window; and a leg slower than its shard's
/// latency-quantile hedge delay may dispatch one duplicate to the same
/// shard and take the first success, bounded by the per-statement hedge
/// budget so hedging cannot melt an already-overloaded fleet.
///
/// Cancellation: the operator passes its own token to the legs and
/// forwards the caller's control cooperatively — when the caller's
/// deadline expires or token fires between batches, all in-flight legs
/// are cancelled before the operator returns.
class ScatterGatherScan : public PhysicalOperator {
 public:
  /// Post-execution record of one leg, for EXPLAIN and stats rollups.
  struct LegInfo {
    size_t shard = 0;
    /// Dispatch attempts (1 = no retry), injector-refused ones included.
    size_t attempts = 0;
    Status status;
    size_t rows = 0;
    QueryStats stats;
    /// Leg skipped under allow_partial (open circuit breaker).
    bool skipped = false;
    /// Leg dispatched a hedge duplicate.
    bool hedged = false;
    /// Leg owns the shard's half-open probe slot and its outcome has not
    /// been recorded yet. Every dispatched probe must resolve (success or
    /// failure) or the breaker wedges in HalfProbe; AwaitLeg clears this
    /// on record, Close() resolves any leg still holding it.
    bool probe_pending = false;
    /// Breaker state observed at the last dispatch attempt.
    BreakerState breaker = BreakerState::kClosed;
  };

  /// `legs` must be sorted ascending by shard (ShardRouter emits them so).
  ScatterGatherScan(Query query, std::vector<ScatterLeg> legs,
                    ScatterOptions options);

  std::string Name() const override { return "ScatterGatherScan"; }
  std::string Describe() const override;

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(TupleBatch* out) override;
  Status Close() override;

  /// Shard owning the rids of the batch NextBatch() just emitted.
  size_t current_shard() const { return current_shard_; }

  /// Per-leg outcomes; fully populated once NextBatch has drained.
  const std::vector<LegInfo>& leg_infos() const { return leg_infos_; }

  /// Leg-merged statistics: counters and cost summed, access-path flags
  /// OR-ed, wall_ns the max over legs (legs overlap in time).
  const QueryStats& merged_stats() const { return merged_; }

  size_t legs_retried() const { return legs_retried_; }

  /// Shards skipped under allow_partial, ascending.
  const std::vector<size_t>& skipped_shards() const {
    return skipped_shards_;
  }
  size_t hedges_dispatched() const { return hedges_used_; }
  size_t hedge_wins() const { return hedge_wins_; }

 private:
  /// One dispatch attempt of leg `i`: breaker gate, outage gate, then
  /// Submit with seeded jittered Busy backoff.
  Status DispatchLeg(size_t i);

  /// The dispatch retry ladder: retries transient/corruption refusals up
  /// to the leg budget, converts an open-circuit refusal into a skip
  /// under allow_partial, annotates the final failure.
  Status DispatchWithRetries(size_t i);

  /// Blocks on leg `i`'s future (hedging-aware); on transient/corruption
  /// failure re-dispatches through DispatchWithRetries.
  Status AwaitLeg(size_t i);

  /// Waits for leg `i`, dispatching a hedge duplicate past the shard's
  /// hedge delay when the budget allows; first success wins.
  Result<StatementResult> CollectLeg(size_t i);

  Query query_;
  std::vector<ScatterLeg> legs_;
  ScatterOptions opts_;
  Rng backoff_rng_;

  const QueryControl* caller_control_ = nullptr;
  /// Token handed to every leg; fired on caller cancel/timeout or early
  /// Close so abandoned legs stop at their next page boundary.
  CancelToken leg_cancel_;

  std::vector<std::future<Result<StatementResult>>> futures_;
  std::vector<std::chrono::steady_clock::time_point> dispatched_at_;
  /// Shared restart-latch holds, one per leg, Open → Close.
  std::vector<std::shared_lock<std::shared_mutex>> leg_gates_;
  /// Loser futures of won hedges; kept until Close so their promises
  /// outlive us deliberately rather than by accident.
  std::vector<std::future<Result<StatementResult>>> discarded_;
  std::vector<LegInfo> leg_infos_;
  std::vector<size_t> skipped_shards_;
  /// Result rids of the leg currently being emitted.
  std::vector<Rid> current_rids_;
  size_t cursor_ = 0;
  size_t leg_index_ = 0;
  size_t current_shard_ = 0;
  size_t legs_retried_ = 0;
  size_t hedges_used_ = 0;
  size_t hedge_wins_ = 0;
  bool opened_ = false;
  QueryStats merged_;
};

/// Annotates a failed leg/statement status with the shard id, attempt
/// count, and (when a tracker is wired) breaker state, so a multi-shard
/// failure is diagnosable from the one error string that reaches the
/// caller: "shard 2: IoError: ... (attempts=3, breaker=open)".
Status AnnotateShardStatus(const Status& status, size_t shard,
                           size_t attempts, const ShardHealthTracker* health);

/// Renders the scatter-gather decision for EXPLAIN:
///
///   ScatterGatherScan(col0 = 500) policy=hash legs=1/4
///   `- Leg[shard 2] rows=7 attempts=1 ok
///
/// Used by ShardedDatabase::Explain, which appends each leg's local
/// physical plan underneath its leg line.
std::string ExplainScatter(const ScatterGatherScan& scan, size_t num_shards,
                           const std::string& policy);

}  // namespace aib

#endif  // AIB_SHARD_SCATTER_GATHER_H_
