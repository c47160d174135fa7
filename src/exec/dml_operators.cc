#include "exec/dml_operators.h"

#include <sstream>

#include "storage/fault_injector.h"

namespace aib {

DmlOperator::DmlOperator(Table* table, IndexBufferSpace* space,
                         const std::map<ColumnId, PartialIndex*>* indexes)
    : table_(table), space_(space), indexes_(indexes) {}

Status DmlOperator::Open(ExecContext* ctx) {
  // Nothing to latch here: each statement's NextBatch acquires exactly the
  // partition-granular latches it needs (see the class comment).
  (void)ctx;
  return Status::Ok();
}

Status DmlOperator::Close() { return Status::Ok(); }

DmlOperator::WriteLatches DmlOperator::AcquireWriteLatches(
    const std::vector<size_t>& pages) {
  WriteLatches latches;
  latches.stripes = table_->page_latches().AcquireExclusive(pages);
  if (space_ == nullptr) return latches;
  // Sentinels shared in ascending column order (the map's order). See the
  // class comment for why the sentinel waits are always empty.
  for (const auto& [column, index] : *indexes_) {
    IndexBuffer* buffer = space_->GetBuffer(index);
    if (buffer == nullptr) continue;
    latches.sentinels.push_back(
        table_->page_latches().AcquireSharedTimed(buffer->scan_latch()));
  }
  return latches;
}

std::vector<size_t> DmlOperator::InsertPages(const Tuple& tuple,
                                              size_t* target) const {
  *target = table_->heap().InsertTarget(tuple.SerializedSize());
  return {*target, table_->PageCount()};
}

Status DmlOperator::Maintain(const Tuple* old_tuple, const Rid& old_rid,
                             size_t old_page, const Tuple* new_tuple,
                             const Rid& new_rid, size_t new_page) {
  const Schema& schema = table_->schema();
  for (const auto& [column, index] : *indexes_) {
    TupleChange change;
    if (old_tuple != nullptr) {
      change.old_value = old_tuple->IntValue(schema, column);
      change.old_rid = old_rid;
      change.old_page = old_page;
    }
    if (new_tuple != nullptr) {
      change.new_value = new_tuple->IntValue(schema, column);
      change.new_rid = new_rid;
      change.new_page = new_page;
    }
    AIB_RETURN_IF_ERROR(ApplyMaintenance(
        index, space_ != nullptr ? space_->GetBuffer(index) : nullptr,
        change));
  }
  return Status::Ok();
}

std::string DmlOperator::MaintenanceSummary() const {
  if (indexes_->empty()) return "none";
  return space_ != nullptr ? "pidx+ibuf+C[p]" : "pidx";
}

std::string DmlOperator::RenderValues(const Tuple& tuple) const {
  const Schema& schema = table_->schema();
  std::ostringstream out;
  bool first = true;
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type != ColumnType::kInt32) continue;
    if (!first) out << ", ";
    out << "col" << c << "=" << tuple.IntValue(schema, c);
    first = false;
  }
  return out.str();
}

InsertOp::InsertOp(Table* table, IndexBufferSpace* space,
                   const std::map<ColumnId, PartialIndex*>* indexes,
                   Tuple tuple)
    : DmlOperator(table, space, indexes), tuple_(std::move(tuple)) {}

std::string InsertOp::Describe() const {
  return RenderValues(tuple_) + " -> maintenance: " + MaintenanceSummary();
}

Result<bool> InsertOp::NextBatch(TupleBatch* out) {
  out->Clear();
  if (done_) return false;
  done_ = true;
  // The append mutex fixes the page the heap chose and the tail, so the
  // stripes latched next cover the page the insert actually lands on.
  std::unique_lock<std::mutex> append(table_->append_mutex());
  size_t target = 0;
  WriteLatches latches = AcquireWriteLatches(InsertPages(tuple_, &target));
  Rid rid;
  size_t page = 0;
  {
    // Commit section: heap write + maintenance are fault-suspended (a
    // modeled WAL-protected atomic commit), so a statement that returns an
    // error has mutated nothing and is safe to retry whole.
    FaultInjector::ScopedSuspend suspend;
    AIB_ASSIGN_OR_RETURN(rid, table_->heap().Insert(tuple_, target));
    AIB_ASSIGN_OR_RETURN(page, table_->PageNumberOf(rid));
    AIB_RETURN_IF_ERROR(Maintain(nullptr, Rid{}, 0, &tuple_, rid, page));
  }
  stats_.rows_out = 1;
  out->rids.push_back(rid);
  out->SetIdentitySelection();
  return true;
}

UpdateOp::UpdateOp(Table* table, IndexBufferSpace* space,
                   const std::map<ColumnId, PartialIndex*>* indexes,
                   const Rid& target, Tuple tuple)
    : DmlOperator(table, space, indexes),
      target_(target),
      tuple_(std::move(tuple)) {}

std::string UpdateOp::Describe() const {
  return "rid=" + RidToString(target_) + " set " + RenderValues(tuple_) +
         " -> maintenance: " + MaintenanceSummary();
}

Result<bool> UpdateOp::NextBatch(TupleBatch* out) {
  out->Clear();
  if (done_) return false;
  done_ = true;
  // Resolve the target's page before latching — a pure directory lookup
  // with no fault draws, so the statement's fault-exposure sequence is
  // unchanged by running it first.
  size_t old_page = 0;
  AIB_ASSIGN_OR_RETURN(old_page, table_->PageNumberOf(target_));
  // The new image may not fit its slot, relocating the tuple as an insert
  // does: latch the old page plus the (append-mutex-pinned) insert pages.
  std::unique_lock<std::mutex> append(table_->append_mutex());
  size_t dest = 0;  // where a relocated image goes
  std::vector<size_t> pages = InsertPages(tuple_, &dest);
  pages.push_back(old_page);
  WriteLatches latches = AcquireWriteLatches(pages);
  // Read phase, fault-exposed: a transient or corruption here fails the
  // statement cleanly before any mutation.
  Tuple old_tuple;
  AIB_ASSIGN_OR_RETURN(old_tuple, table_->Get(target_));
  Rid new_rid;
  size_t new_page = 0;
  {
    FaultInjector::ScopedSuspend suspend;
    AIB_ASSIGN_OR_RETURN(new_rid, table_->heap().Update(target_, tuple_, dest));
    AIB_ASSIGN_OR_RETURN(new_page, table_->PageNumberOf(new_rid));
    AIB_RETURN_IF_ERROR(
        Maintain(&old_tuple, target_, old_page, &tuple_, new_rid, new_page));
  }
  stats_.rows_out = 1;
  out->rids.push_back(new_rid);
  out->SetIdentitySelection();
  return true;
}

DeleteOp::DeleteOp(Table* table, IndexBufferSpace* space,
                   const std::map<ColumnId, PartialIndex*>* indexes,
                   const Rid& target)
    : DmlOperator(table, space, indexes), target_(target) {}

std::string DeleteOp::Describe() const {
  return "rid=" + RidToString(target_) +
         " -> maintenance: " + MaintenanceSummary();
}

Result<bool> DeleteOp::NextBatch(TupleBatch* out) {
  out->Clear();
  if (done_) return false;
  done_ = true;
  // A delete only gives room back: no append mutex, just the target's
  // stripe (the heap's free-space list has its own mutex).
  size_t page = 0;
  AIB_ASSIGN_OR_RETURN(page, table_->PageNumberOf(target_));
  WriteLatches latches = AcquireWriteLatches({page});
  Tuple old_tuple;
  AIB_ASSIGN_OR_RETURN(old_tuple, table_->Get(target_));
  {
    FaultInjector::ScopedSuspend suspend;
    AIB_RETURN_IF_ERROR(table_->Delete(target_));
    AIB_RETURN_IF_ERROR(Maintain(&old_tuple, target_, page, nullptr, Rid{}, 0));
  }
  stats_.rows_out = 1;
  out->rids.push_back(target_);
  out->SetIdentitySelection();
  return true;
}

}  // namespace aib
