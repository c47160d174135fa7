#ifndef AIB_EXEC_OPERATOR_H_
#define AIB_EXEC_OPERATOR_H_

#include <array>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/query_control.h"
#include "common/result.h"
#include "common/types.h"
#include "exec/batch.h"
#include "exec/query.h"
#include "storage/table.h"

namespace aib {

class MorselDispatcher;

/// Knobs of the morsel-parallel scan path (see exec/morsel.h). Threaded
/// through ExecContext; scans run their morsels inline on the calling
/// thread when no dispatcher is configured or the table is below the
/// parallel floor.
struct ParallelScanOptions {
  /// Pages per morsel. Morsels are aligned so none spans an Index Buffer
  /// partition boundary.
  size_t morsel_pages = 32;
  /// Tables smaller than this many pages scan serially even with a
  /// dispatcher: the fan-out overhead outweighs a few pages of work.
  size_t min_pages_for_parallel = 64;
};

/// Per-operator execution statistics, summed into QueryStats by the plan
/// and rendered per node by ExplainPlan().
struct OperatorStats : AccessPathCounters {
  /// Rows this operator emitted to its parent.
  size_t rows_out = 0;
  /// Rows pulled from children (Filter reports its selectivity this way).
  size_t rows_in = 0;
};

/// The set of pages a statement has fetched, so a page touched by several
/// operators is charged to pages_fetched once. Inline for the few pages a
/// point answer touches (no allocation); a hash set past that.
class FetchedPages {
 public:
  /// Adds `page`; true if it was not in the set yet.
  bool Insert(PageId page) {
    for (size_t i = 0; i < inline_count_; ++i) {
      if (inline_[i] == page) return false;
    }
    if (inline_count_ < kInline) {
      inline_[inline_count_++] = page;
      return true;
    }
    return overflow_.insert(page).second;
  }

 private:
  static constexpr size_t kInline = 16;
  std::array<PageId, kInline> inline_{};
  size_t inline_count_ = 0;
  std::unordered_set<PageId> overflow_;
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
  FetchedPages fetched_pages;
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
