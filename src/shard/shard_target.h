#ifndef AIB_SHARD_SHARD_TARGET_H_
#define AIB_SHARD_SHARD_TARGET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/query_control.h"
#include "exec/statement.h"

namespace aib {

// The value types of a ShardedDatabase statement: what goes in
// (ShardStatement, ShardSubmitOptions) and what comes back (ShardResult,
// rows addressed by GlobalRid).

/// Fleet-wide record address: the owning shard plus the shard-local rid.
/// A one-shard fleet uses shard 0 throughout.
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

/// One statement addressed to a shard fleet. The same tagged-union
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

/// Per-statement submission context at the shard layer. A select whose
/// leg reaches an open circuit breaker fails fast with that shard's
/// Unavailable status; a fleet answer is never missing a shard's rows.
struct ShardSubmitOptions {
  /// Whole-statement budget; every scatter leg inherits what remains of
  /// it. Zero = unbounded.
  std::chrono::milliseconds deadline{0};
  /// Cooperative cancel: flipping the token cancels every in-flight leg at
  /// its next batch/page boundary.
  CancelToken cancel;
};

/// Result of one statement against a shard fleet. For selects, `rids`
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
  /// Duplicate legs dispatched past the hedge delay, and how many of them
  /// beat their primary.
  size_t legs_hedged = 0;
  size_t hedge_wins = 0;
};

}  // namespace aib

#endif  // AIB_SHARD_SHARD_TARGET_H_
