#ifndef AIB_SHARD_SHARDED_DATABASE_H_
#define AIB_SHARD_SHARDED_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/metrics.h"
#include "index/value_coverage.h"
#include "shard/shard.h"
#include "shard/shard_fault.h"
#include "shard/shard_health.h"
#include "shard/shard_router.h"
#include "shard/shard_target.h"

namespace aib {

/// Fleet fault-tolerance knobs: the outage injector's seed, the per-shard
/// circuit breakers, hedging, and the shared Busy-admission backoff.
struct FleetToleranceOptions {
  /// Seeds the outage injector's per-shard draw streams and (xor'd with a
  /// per-statement counter) each statement's backoff jitter.
  uint64_t seed = 1;
  /// Per-shard rolling-window circuit breaker + hedge-delay quantiles.
  CircuitBreakerOptions breaker;
  /// Hedge duplicates allowed per select statement; 0 disables hedging.
  size_t hedge_budget = 2;
  /// Busy-admission backoff shape, shared with the breaker's probe
  /// schedule idiom (seeded jittered exponential).
  BackoffPolicy busy_backoff;
};

/// Re-dispatches of a failed leg (transient/corruption) before the whole
/// statement fails. Rides on top of each shard service's internal
/// whole-statement retries.
inline constexpr size_t kMaxLegRetries = 3;

struct ShardedDatabaseOptions {
  ShardRouterOptions router;
  /// Applied to every shard node. Note the per-shard nature: N shards get
  /// N buffer pools of `db.buffer_pool_pages` frames and N Index Buffer
  /// Spaces of `db.space.max_entries` entries each — scale the per-shard
  /// budgets down when comparing fleet totals against a single node.
  ShardOptions shard;
  FleetToleranceOptions tolerance;
};

/// A shared-nothing shard fleet behind one statement front door, and the
/// one deployment API: one shard is a single node, N shards a fleet. Rows
/// are placed by the ShardRouter, selects scatter to the owning shards and
/// gather their rids in ascending shard order, DML routes to the single
/// owning shard (updates whose new routing value moves them are migrated
/// delete+insert), and every shard runs the paper's adaptive control loop
/// independently on its own IndexBufferSpace — coverage C[p] is per-shard
/// by design.
///
/// Every shard leg, select or DML, runs through one leg runner: Dispatch
/// (circuit-breaker gate, outage gate, jittered Busy backoff, Submit with
/// what remains of the statement's deadline) and Await (wait, hedge a slow
/// select leg, record the outcome in the breaker, re-dispatch a
/// transient/corruption failure up to `kMaxLegRetries` — the
/// recovery-free property of §VII makes a failed leg safe to re-run).
///
/// Fleet fault tolerance: a ShardFaultInjector can crash/hang/brownout
/// individual shards (tests, shell, chaos bench); every dispatch consults
/// the shard's circuit breaker in the ShardHealthTracker and feeds its
/// outcome back; slow select legs hedge within a per-statement budget;
/// and RestartShard(i) restarts a node from its own durable state — its
/// Index Buffers come back empty and re-adapt (recovery-free, §VII) while
/// answers hold the same rids as a never-crashed fleet.
///
/// No cross-shard transactions: a migrating update is two independent
/// single-shard statements (documented non-atomicity; the delete lands
/// before the insert, and only the delete answers to the caller's
/// deadline and cancel).
///
/// Thread-safety: ExecuteStatement/FetchRow may be called from concurrent
/// threads once provisioning (LoadTuple / CreatePartialIndex) is complete;
/// provisioning itself is single-threaded setup, same as the underlying
/// Database contract.
class ShardedDatabase {
 public:
  ShardedDatabase(Schema schema, ShardedDatabaseOptions options);
  ~ShardedDatabase();

  size_t ShardCount() const { return shards_.size(); }
  const Schema& schema() const;
  /// Direct access to one shard node (0 <= i < ShardCount()), for tests,
  /// fault arming, and per-shard introspection.
  Shard& shard(size_t i) { return *shards_[i]; }
  const Shard& shard(size_t i) const { return *shards_[i]; }
  const ShardRouter& router() const { return router_; }
  const ShardedDatabaseOptions& options() const { return options_; }
  /// The routing layer's own registry (leg dispatch/retry/migration and
  /// outage/breaker/hedge counters); included in FleetCounters().
  Metrics& router_metrics() { return router_metrics_; }
  /// The fleet outage script: crash/hang/brownout shards from tests, the
  /// shell, or the chaos bench.
  ShardFaultInjector& fault_injector() { return faults_; }
  /// Per-shard breaker/latency state, for introspection and tests.
  const ShardHealthTracker& health() const { return health_; }

  /// Loads a row without index maintenance (initial loading before index
  /// creation), placing it on its owning shard.
  Result<GlobalRid> LoadTuple(const Tuple& tuple);
  /// Creates the same partial index on every shard.
  Status CreatePartialIndex(
      ColumnId column, ValueCoverage coverage,
      IndexStructureKind structure = IndexStructureKind::kBTree);

  Result<ShardResult> ExecuteStatement(const ShardStatement& statement,
                                       const ShardSubmitOptions& submit = {});

  /// The row behind a fleet-wide rid — the gather-side materialization
  /// primitive, and what order-normalized cross-deployment comparisons
  /// fetch (rids are placement-dependent; row contents are not).
  Result<Tuple> FetchRow(const GlobalRid& grid) const;

  /// Fleet-wide counter rollup: every shard's registry plus the routing
  /// layer's own, summed per counter name.
  std::map<std::string, int64_t> FleetCounters() const;

  /// Renders the routing decision and per-shard physical plans for
  /// `query` (executes the legs to populate per-operator stats, like the
  /// shell's explain).
  Result<std::string> Explain(const Query& query);

  /// Restart of shard `i`: revives any injected outage, waits out
  /// in-flight requests (restart latch), rebuilds the node from its own
  /// durable pages via Shard::Restart, and resets the shard's breaker.
  /// The shard comes back with an empty Index Buffer Space and zeroed
  /// metrics, exactly like a process restart.
  Status RestartShard(size_t i);

  /// Stops admission on every shard service and joins their workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

 private:
  struct Leg;
  struct LegRun;

  Result<ShardResult> RunSelect(const Query& query,
                                const QueryControl& control);
  Result<ShardResult> RunDml(const ShardStatement& statement,
                             const QueryControl& control);

  /// Runs `statement` on `shards` (ascending): pins each shard against
  /// restart, dispatches every leg (stopping at the first refusal
  /// that fails the statement), then awaits the legs in shard order,
  /// checking `control` before each, and gathers their rids (tagged with
  /// the shard) and merged stats. Hedging applies to selects only.
  Result<ShardResult> RunLegs(const Statement& statement,
                              const std::vector<size_t>& shards,
                              const QueryControl& control);

  /// One dispatch attempt of `leg`: breaker gate, outage gate, then Submit
  /// with the remaining budget and jittered backoff while Busy.
  Status Dispatch(LegRun& run, Leg& leg);

  /// True when `status`, the failure of `leg`'s latest attempt, fails the
  /// statement: not retriable, or out of retries.
  bool FailsStatement(const Leg& leg, const Status& status) const;

  /// The leg's result: waits (hedging when allowed), records the outcome
  /// in the breaker, and re-dispatches transient/corruption failures up
  /// to `kMaxLegRetries`.
  Result<StatementResult> Await(LegRun& run, Leg& leg);

  /// Waits for the leg's future; past the shard's hedge delay, dispatches
  /// one duplicate when the run's hedge budget allows; the first result
  /// to land wins.
  Result<StatementResult> Collect(LegRun& run, Leg& leg);

  ShardedDatabaseOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Metrics router_metrics_;
  ShardFaultInjector faults_;
  ShardHealthTracker health_;
  /// Per-statement counter; decorrelates backoff jitter across statements.
  std::atomic<uint64_t> statement_seq_{0};
};

}  // namespace aib

#endif  // AIB_SHARD_SHARDED_DATABASE_H_
