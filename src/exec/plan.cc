#include "exec/plan.h"

#include <chrono>
#include <sstream>

namespace aib {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Aggregate(const PhysicalOperator& op, QueryStats* stats) {
  stats->Add(op.stats());
  for (const PhysicalOperator* child : op.Children()) {
    Aggregate(*child, stats);
  }
}

void AppendStats(const PhysicalOperator& op, std::ostringstream* out) {
  const OperatorStats& s = op.stats();
  *out << "  [rows=" << s.rows_out;
  if (s.rows_in > 0) *out << " rows_in=" << s.rows_in;
  if (s.pages_scanned > 0) *out << " scanned=" << s.pages_scanned;
  if (s.pages_skipped > 0) *out << " skipped=" << s.pages_skipped;
  if (s.pages_fetched > 0) *out << " fetched=" << s.pages_fetched;
  if (s.ix_probes > 0) *out << " probes=" << s.ix_probes;
  if (s.buffer_probes > 0) *out << " buffer_probes=" << s.buffer_probes;
  if (s.buffer_matches > 0) *out << " buffer_matches=" << s.buffer_matches;
  if (s.cold_probes > 0) *out << " cold_probes=" << s.cold_probes;
  if (s.cold_matches > 0) *out << " cold_matches=" << s.cold_matches;
  // Tier annotation per probe leg: the partial index is its own tier; a
  // buffer-probe leg reports which Index Buffer tier(s) served it.
  if (s.ix_probes > 0) {
    *out << " tier=partial";
  } else if (s.buffer_probes > 0) {
    if (s.cold_probes == 0) {
      *out << " tier=hot";
    } else if (s.cold_probes >= s.buffer_probes) {
      *out << " tier=cold";
    } else {
      *out << " tier=hot+cold";
    }
  }
  if (s.pages_selected > 0) *out << " selected=" << s.pages_selected;
  if (s.entries_added > 0) *out << " entries_added=" << s.entries_added;
  if (s.entries_dropped > 0) *out << " entries_dropped=" << s.entries_dropped;
  if (s.partitions_dropped > 0) {
    *out << " partitions_dropped=" << s.partitions_dropped;
  }
  if (s.partitions_demoted > 0) {
    *out << " partitions_demoted=" << s.partitions_demoted;
  }
  if (s.entries_demoted > 0) {
    *out << " entries_demoted=" << s.entries_demoted;
  }
  if (s.partitions_promoted > 0) {
    *out << " promoted=" << s.partitions_promoted;
  }
  if (s.partitions_quarantined > 0) {
    *out << " quarantined=" << s.partitions_quarantined;
  }
  if (s.degraded) *out << " degraded";
  *out << "]";
}

void RenderNode(const PhysicalOperator& op, const std::string& prefix,
                bool is_last, bool is_root, std::ostringstream* out) {
  if (!is_root) {
    *out << prefix << (is_last ? "`- " : "|- ");
  }
  *out << op.Name();
  const std::string detail = op.Describe();
  if (!detail.empty()) *out << "(" << detail << ")";
  AppendStats(op, out);
  *out << "\n";
  const std::vector<const PhysicalOperator*> children = op.Children();
  const std::string child_prefix =
      is_root ? "" : prefix + (is_last ? "   " : "|  ");
  for (size_t i = 0; i < children.size(); ++i) {
    RenderNode(*children[i], child_prefix, i + 1 == children.size(), false,
               out);
  }
}

}  // namespace

PhysicalPlan::PhysicalPlan(std::unique_ptr<PhysicalOperator> root,
                           const Table* table)
    : root_(std::move(root)), table_(table) {}

Result<StatementResult> PhysicalPlan::Run(const CostModel& cost_model,
                                          const QueryControl* control,
                                          MorselDispatcher* dispatcher,
                                          const ParallelScanOptions& parallel) {
  const int64_t start = NowNs();
  executed_ = true;
  ExecContext ctx;
  ctx.table = table_;
  ctx.control = control;
  ctx.dispatcher = dispatcher;
  ctx.parallel = parallel;

  StatementResult result;
  Status status = control != nullptr ? control->Check() : Status::Ok();
  if (status.ok()) status = root_->Open(&ctx);
  if (status.ok()) {
    TupleBatch batch;
    for (;;) {
      // Cooperative deadline/cancel check at every batch boundary.
      if (control != nullptr) {
        status = control->Check();
        if (!status.ok()) break;
      }
      Result<bool> more = root_->NextBatch(&batch);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!more.value()) break;
      batch.AppendSelectedTo(&result.rids);
    }
  }
  // Close unconditionally: operators holding latch scopes (the indexing
  // scan's space latch) release them here even when Open/Next failed.
  const Status close_status = root_->Close();
  AIB_RETURN_IF_ERROR(status);
  AIB_RETURN_IF_ERROR(close_status);

  result.stats.used_partial_index = used_partial_index_;
  result.stats.used_index_buffer = used_index_buffer_;
  Aggregate(*root_, &result.stats);
  result.stats.result_count = result.rids.size();
  result.rows_affected = IsDml() ? result.rids.size() : 0;
  result.stats.cost = cost_model.QueryCost(result.stats);
  result.stats.wall_ns = NowNs() - start;
  return result;
}

std::string ExplainPlan(const PhysicalPlan& plan) {
  std::ostringstream out;
  RenderNode(plan.root(), "", /*is_last=*/true, /*is_root=*/true, &out);
  return out.str();
}

}  // namespace aib
