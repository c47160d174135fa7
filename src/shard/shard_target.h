#ifndef AIB_SHARD_SHARD_TARGET_H_
#define AIB_SHARD_SHARD_TARGET_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/query_control.h"
#include "common/result.h"
#include "exec/statement.h"
#include "index/value_coverage.h"
#include "shard/shard.h"

namespace aib {

/// Fleet-wide record address: the owning shard plus the shard-local rid.
/// Single-node deployments use shard 0 throughout, so trace-replay
/// harnesses can drive any deployment with one rid bookkeeping scheme.
struct GlobalRid {
  uint32_t shard = 0;
  Rid rid;

  friend bool operator==(const GlobalRid&, const GlobalRid&) = default;
  friend auto operator<=>(const GlobalRid&, const GlobalRid&) = default;
};

inline std::string GlobalRidToString(const GlobalRid& grid) {
  return "[shard " + std::to_string(grid.shard) + " " +
         RidToString(grid.rid) + "]";
}

/// One statement addressed to a shard deployment. The same tagged-union
/// convention as exec/statement.h, with shard-qualified DML targets:
/// `query` for selects, `tuple` for inserts/updates, `target` for
/// updates/deletes.
struct ShardStatement {
  StatementKind kind = StatementKind::kSelect;
  Query query;
  Tuple tuple;
  GlobalRid target;

  static ShardStatement Select(Query query) {
    ShardStatement statement;
    statement.kind = StatementKind::kSelect;
    statement.query = std::move(query);
    return statement;
  }

  static ShardStatement Insert(Tuple tuple) {
    ShardStatement statement;
    statement.kind = StatementKind::kInsert;
    statement.tuple = std::move(tuple);
    return statement;
  }

  static ShardStatement Update(const GlobalRid& target, Tuple tuple) {
    ShardStatement statement;
    statement.kind = StatementKind::kUpdate;
    statement.target = target;
    statement.tuple = std::move(tuple);
    return statement;
  }

  static ShardStatement Delete(const GlobalRid& target) {
    ShardStatement statement;
    statement.kind = StatementKind::kDelete;
    statement.target = target;
    return statement;
  }

  bool IsDml() const { return kind != StatementKind::kSelect; }
};

/// Per-statement submission context at the shard layer.
struct ShardSubmitOptions {
  /// Tenant attribution; meaningful when the statement flows through a
  /// TenantScheduler (QoS weights and per-tenant deadlines key off it).
  uint64_t tenant = 0;
  /// Whole-statement budget; every scatter leg inherits what remains of
  /// it. Zero = unbounded.
  std::chrono::milliseconds deadline{0};
  /// Cooperative cancel: flipping the token cancels every in-flight leg at
  /// its next batch/page boundary.
  CancelToken cancel;
  /// Degraded-gather opt-in for selects: legs refused by an open circuit
  /// breaker are skipped instead of failing the statement — the result
  /// carries the healthy legs plus `ShardResult::shards_skipped` and the
  /// stats-level `degraded` marker. Without it, a select touching an
  /// open-circuit shard fails fast with a per-shard Unavailable status.
  bool allow_partial = false;
};

/// Result of one statement against a shard deployment. For selects, `rids`
/// are the matches tagged with their owning shard (ascending shard order,
/// each shard's own deterministic order within); for DML, `rids` holds the
/// affected row's address (post-migration for updates that moved shards).
struct ShardResult {
  std::vector<GlobalRid> rids;
  size_t rows_affected = 0;
  /// Merged across legs: counters summed, access-path flags OR-ed, cost
  /// summed (total work), wall_ns the max over legs (critical path).
  QueryStats stats;
  /// Shards this statement touched.
  size_t legs = 0;
  /// Legs re-dispatched after a transient fault or Busy admission.
  size_t legs_retried = 0;
  /// Shards skipped under allow_partial (open circuit breaker), ascending.
  /// Non-empty implies stats.degraded — the result is missing those
  /// shards' rows by the caller's explicit choice.
  std::vector<size_t> shards_skipped;
  /// Duplicate legs dispatched past the hedge delay, and how many of them
  /// beat their primary.
  size_t legs_hedged = 0;
  size_t hedge_wins = 0;
};

/// The deployment abstraction the planner, shell, benches, and tests
/// depend on: a thing that owns rows, executes statements against them,
/// and reports merged metrics — whether it is one node or a shard fleet.
/// Implementations: SingleNodeTarget (one Shard, no routing) and
/// ShardedDatabase (N shared-nothing shards behind a ShardRouter).
///
/// Thread-safety: ExecuteStatement/FetchRow may be called
/// from concurrent threads once provisioning (LoadTuple /
/// CreatePartialIndex) is complete; provisioning itself is single-threaded
/// setup, same as the underlying Database contract.
class IShardTarget {
 public:
  virtual ~IShardTarget() = default;

  virtual size_t ShardCount() const = 0;
  virtual const Schema& schema() const = 0;

  /// Direct access to one shard node (0 <= i < ShardCount()), for tests,
  /// fault arming, and per-shard introspection.
  virtual Shard& shard(size_t i) = 0;
  virtual const Shard& shard(size_t i) const = 0;

  // --- Provisioning ---------------------------------------------------------

  /// Loads a row without index maintenance (initial loading before index
  /// creation), placing it on its owning shard.
  virtual Result<GlobalRid> LoadTuple(const Tuple& tuple) = 0;

  /// Creates the same partial index on every shard.
  virtual Status CreatePartialIndex(
      ColumnId column, ValueCoverage coverage,
      IndexStructureKind structure = IndexStructureKind::kBTree) = 0;

  // --- Statements -----------------------------------------------------------

  virtual Result<ShardResult> ExecuteStatement(
      const ShardStatement& statement,
      const ShardSubmitOptions& submit = {}) = 0;

  /// Pre-dispatch admission probe: non-Ok when every shard the statement
  /// would touch currently refuses work (open circuit breakers).
  /// Schedulers use it to shed queued statements without burning a
  /// dispatch slot on a guaranteed fail-fast; the default accepts
  /// everything.
  virtual Status AdmissionCheck(const ShardStatement& statement) const {
    (void)statement;
    return Status::Ok();
  }

  /// The row behind a fleet-wide rid — the gather-side materialization
  /// primitive, and what order-normalized cross-deployment comparisons
  /// fetch (rids are placement-dependent; row contents are not).
  virtual Result<Tuple> FetchRow(const GlobalRid& grid) const = 0;

  // --- Observability --------------------------------------------------------

  /// Fleet-wide counter rollup: every shard's registry (plus the routing
  /// layer's own, if any) summed per counter name.
  virtual std::map<std::string, int64_t> FleetCounters() const = 0;

  /// Renders the routing decision and per-shard physical plans for
  /// `query` (executes the legs to populate per-operator stats, like the
  /// shell's explain).
  virtual Result<std::string> Explain(const Query& query) = 0;
};

}  // namespace aib

#endif  // AIB_SHARD_SHARD_TARGET_H_
