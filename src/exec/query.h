#ifndef AIB_EXEC_QUERY_H_
#define AIB_EXEC_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace aib {

/// One conjunct of a selection predicate: column value ∈ [lo, hi]
/// (inclusive).
struct ColumnPredicate {
  ColumnId column = 0;
  Value lo = 0;
  Value hi = 0;

  bool IsPoint() const { return lo == hi; }
  bool Matches(Value v) const { return v >= lo && v <= hi; }

  friend bool operator==(const ColumnPredicate&,
                         const ColumnPredicate&) = default;
};

/// A selection query: a conjunction of per-column range predicates over the
/// integer columns of one table. The *primary* predicate (column/lo/hi)
/// drives access-path selection exactly as in the paper's single-predicate
/// evaluation; `residuals` holds additional ANDed conjuncts, which the
/// planner either pushes into scans or applies as a residual Filter above
/// an index probe. The paper's evaluation uses point queries (lo == hi);
/// range predicates exercise the hybrid execution path.
struct Query {
  ColumnId column = 0;
  Value lo = 0;
  Value hi = 0;
  /// Additional ANDed predicates beyond the primary one. Empty for the
  /// paper's single-column workloads.
  std::vector<ColumnPredicate> residuals;

  static Query Point(ColumnId column, Value v) { return {column, v, v, {}}; }
  static Query Range(ColumnId column, Value lo, Value hi) {
    return {column, lo, hi, {}};
  }

  /// Builder for conjunctions: Query::Point(0, 5).And(1, 10, 20).
  Query& And(ColumnId c, Value a_lo, Value a_hi) {
    residuals.push_back({c, a_lo, a_hi});
    return *this;
  }

  /// True for a single-predicate point query (the granularity the online
  /// tuner adapts at).
  bool IsPoint() const { return lo == hi; }

  /// Primary predicate followed by the residual conjuncts.
  std::vector<ColumnPredicate> AllPredicates() const {
    std::vector<ColumnPredicate> preds;
    preds.reserve(1 + residuals.size());
    preds.push_back({column, lo, hi});
    preds.insert(preds.end(), residuals.begin(), residuals.end());
    return preds;
  }
};

/// The access-path counters, declared once: every operator carries them
/// (OperatorStats), a statement sums its operator tree into them
/// (QueryStats), and a fleet sums its legs — each roll-up is one Add().
struct AccessPathCounters {
  size_t pages_scanned = 0;
  size_t pages_skipped = 0;
  /// Distinct pages touched to fetch index-matched tuples. Deduplicated
  /// across the whole statement (ExecContext): a page fetched by both the
  /// buffer-match materialization and the hybrid covered-on-skipped tail
  /// counts once.
  size_t pages_fetched = 0;
  size_t ix_probes = 0;
  /// Index Buffer partitions probed.
  size_t buffer_probes = 0;
  size_t buffer_matches = 0;
  /// Buffer probes / matches served by the *cold* tier (demoted runs);
  /// subsets of buffer_probes / buffer_matches.
  size_t cold_probes = 0;
  size_t cold_matches = 0;
  size_t entries_added = 0;
  size_t entries_dropped = 0;
  size_t partitions_dropped = 0;
  /// Two-tier displacement (demote mode): Algorithm 2 victims compacted
  /// cold, and cold partitions promoted back hot because the driving range
  /// probes them.
  size_t partitions_demoted = 0;
  size_t entries_demoted = 0;
  size_t partitions_promoted = 0;
  /// Pages quarantined by fault-degradation.
  size_t partitions_quarantined = 0;
  /// |I| of Algorithm 2 (pages selected for indexing).
  size_t pages_selected = 0;
  /// Answered through the degraded plain-scan leg after a fault (results
  /// are still exact — only slower, per the recovery-free argument).
  bool degraded = false;

  void Add(const AccessPathCounters& other) {
    pages_scanned += other.pages_scanned;
    pages_skipped += other.pages_skipped;
    pages_fetched += other.pages_fetched;
    ix_probes += other.ix_probes;
    buffer_probes += other.buffer_probes;
    buffer_matches += other.buffer_matches;
    cold_probes += other.cold_probes;
    cold_matches += other.cold_matches;
    entries_added += other.entries_added;
    entries_dropped += other.entries_dropped;
    partitions_dropped += other.partitions_dropped;
    partitions_demoted += other.partitions_demoted;
    entries_demoted += other.entries_demoted;
    partitions_promoted += other.partitions_promoted;
    partitions_quarantined += other.partitions_quarantined;
    pages_selected += other.pages_selected;
    degraded = degraded || other.degraded;
  }
};

/// Per-statement execution statistics, consumed by the cost model and the
/// benches (which plot them as the paper's per-query series).
struct QueryStats : AccessPathCounters {
  /// The query was answered by the partial index alone.
  bool used_partial_index = false;
  /// The query ran an indexing table scan (Algorithm 1).
  bool used_index_buffer = false;

  size_t result_count = 0;

  /// Simulated cost units (CostModel) — the "runtime" axis of the figures.
  double cost = 0;
  /// Measured wall time of this in-process engine.
  int64_t wall_ns = 0;
};

}  // namespace aib

#endif  // AIB_EXEC_QUERY_H_
