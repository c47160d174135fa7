#ifndef AIB_EXEC_OPERATOR_H_
#define AIB_EXEC_OPERATOR_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "common/query_control.h"
#include "common/result.h"
#include "common/types.h"
#include "exec/batch.h"
#include "storage/table.h"

namespace aib {

class MorselDispatcher;

/// Knobs of the morsel-parallel scan path (see exec/morsel.h). Threaded
/// through ExecContext; scans fall back to the serial batch loop when no
/// dispatcher is configured or the table is below the parallel floor.
struct ParallelScanOptions {
  /// Pages per morsel. Morsels are aligned so none spans an Index Buffer
  /// partition boundary.
  size_t morsel_pages = 32;
  /// Tables smaller than this many pages scan serially even with a
  /// dispatcher: the fan-out overhead outweighs a few pages of work.
  size_t min_pages_for_parallel = 64;
};

/// Per-operator execution statistics, aggregated into QueryStats by the
/// plan and rendered per node by ExplainPlan().
struct OperatorStats {
  /// Rows this operator emitted to its parent.
  size_t rows_out = 0;
  /// Rows pulled from children (Filter reports its selectivity this way).
  size_t rows_in = 0;
  size_t pages_scanned = 0;
  size_t pages_skipped = 0;
  /// Distinct pages this operator fetched that no earlier fetch of the
  /// same query already touched (ExecContext dedupes query-wide).
  size_t pages_fetched = 0;
  size_t ix_probes = 0;
  size_t buffer_probes = 0;
  size_t buffer_matches = 0;
  /// Buffer probes / matches served by the cold tier (demoted runs); part
  /// of buffer_probes / buffer_matches, broken out for the tier annotation.
  size_t cold_probes = 0;
  size_t cold_matches = 0;
  size_t entries_added = 0;
  size_t entries_dropped = 0;
  size_t partitions_dropped = 0;
  /// Algorithm 2 demote-mode displacement (victims compacted cold).
  size_t partitions_demoted = 0;
  size_t entries_demoted = 0;
  /// Cold partitions promoted back hot by this operator's Open.
  size_t partitions_promoted = 0;
  /// |I| of Algorithm 2 (pages selected for indexing this scan).
  size_t pages_selected = 0;
  /// Pages quarantined by this operator after a fault (degradation path).
  size_t partitions_quarantined = 0;
  /// The operator fell back to a plain scan after a fault.
  bool degraded = false;
};

/// Shared per-execution state threaded through Open(). Owns the query-wide
/// fetched-page set, so pages touched by several operators (buffer-match
/// materialization and the hybrid covered-on-skipped tail of one query)
/// are charged exactly once to pages_fetched.
struct ExecContext {
  const Table* table = nullptr;
  /// Deadline/cancellation context; null when the caller set no budget.
  /// Operators with long Open/Next phases consult it cooperatively.
  const QueryControl* control = nullptr;
  /// Morsel dispatcher for intra-query parallel scans; null = serial.
  MorselDispatcher* dispatcher = nullptr;
  ParallelScanOptions parallel;
  std::unordered_set<PageId> fetched_pages;

  /// Fetches the tuples behind `rids`; charges each page not yet fetched
  /// in this query to `stats->pages_fetched`.
  Status FetchRids(const std::vector<Rid>& rids, OperatorStats* stats) {
    for (const Rid& rid : rids) {
      AIB_RETURN_IF_ERROR(table->Get(rid).status());
      if (fetched_pages.insert(rid.page_id).second) ++stats->pages_fetched;
    }
    return Status::Ok();
  }
};

/// The Volcano-style physical operator interface, batch-at-a-time: Open /
/// NextBatch / Close, with per-operator stats and child links for plan
/// rendering. Batches carry a selection vector (see exec/batch.h); parents
/// consume only the selected entries.
///
/// Lifecycle: Open(ctx) once, NextBatch(&batch) until it returns false,
/// Close() once (also on error paths — Close must be safe after a failed
/// Open). Operators own their children and are single-use: a plan executes
/// once and afterwards serves only ExplainPlan().
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Operator name for EXPLAIN ("FullTableScan", "Filter", ...).
  virtual std::string Name() const = 0;

  /// One-line argument rendering for EXPLAIN ("col0 ∈ [5001,50000]").
  virtual std::string Describe() const { return ""; }

  virtual Status Open(ExecContext* ctx) = 0;

  /// Fills `out` with the next batch; returns false when exhausted.
  /// `out` is cleared by the callee.
  virtual Result<bool> NextBatch(TupleBatch* out) = 0;

  virtual Status Close() = 0;

  const OperatorStats& stats() const { return stats_; }

  /// Children in execution order, for tree rendering.
  virtual std::vector<const PhysicalOperator*> Children() const { return {}; }

 protected:
  OperatorStats stats_;
};

/// Renders a predicate conjunct for Describe().
std::string PredicateToString(ColumnId column, Value lo, Value hi);

}  // namespace aib

#endif  // AIB_EXEC_OPERATOR_H_
