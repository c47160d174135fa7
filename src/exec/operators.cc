#include "exec/operators.h"

#include <limits>
#include <sstream>

#include "core/consistency.h"
#include "exec/batch.h"
#include "exec/morsel.h"
#include "storage/fault_injector.h"

namespace aib {

std::string PredicateToString(ColumnId column, Value lo, Value hi) {
  std::ostringstream out;
  out << "col" << column;
  if (lo == hi) {
    out << " = " << lo;
  } else {
    out << " in [" << lo << "," << hi << "]";
  }
  return out.str();
}

std::string PredicatesToString(
    const std::vector<ColumnPredicate>& predicates) {
  std::string result;
  for (const ColumnPredicate& p : predicates) {
    if (!result.empty()) result += " AND ";
    result += PredicateToString(p.column, p.lo, p.hi);
  }
  return result;
}

bool MatchesAll(const Tuple& tuple, const Schema& schema,
                const std::vector<ColumnPredicate>& predicates) {
  for (const ColumnPredicate& p : predicates) {
    if (!p.Matches(tuple.IntValue(schema, p.column))) return false;
  }
  return true;
}

// --- FullTableScan ----------------------------------------------------------

FullTableScan::FullTableScan(const Table* table,
                             std::vector<ColumnPredicate> predicates)
    : table_(table), predicates_(std::move(predicates)) {}

std::string FullTableScan::Describe() const {
  return PredicatesToString(predicates_);
}

Status FullTableScan::Open(ExecContext* ctx) {
  // A full scan reads every heap page: take every page stripe shared for
  // the scan's duration (stripes are level 3 of the latch order; a plain
  // scan takes no structural latch and no sentinels). Concurrent scans and
  // probes share freely; DML of any page of this table waits.
  heap_latch_ = table_->page_latches().AcquireAllShared();
  cursor_ = 0;
  rids_.clear();
  size_t pages = 0;
  const Status scan =
      MorselPlainScan(*table_, predicates_, *ctx, &rids_, &pages);
  // On failure rids_/pages hold the prefix before the failing page.
  stats_.pages_scanned += pages;
  stats_.rows_out += rids_.size();
  return scan;
}

Result<bool> FullTableScan::NextBatch(TupleBatch* out) {
  out->Clear();
  return EmitRidChunk(rids_, &cursor_, /*needs_fetch=*/false, out);
}

Status FullTableScan::Close() {
  heap_latch_.Release();
  return Status::Ok();
}

// --- PartialIndexProbe ------------------------------------------------------

namespace {
std::function<void()>& ProbeConflictHook() {
  static std::function<void()> hook;
  return hook;
}
}  // namespace

void PartialIndexProbe::SetConflictHookForTest(std::function<void()> hook) {
  ProbeConflictHook() = std::move(hook);
}

PartialIndexProbe::PartialIndexProbe(const PartialIndex* index, Value lo,
                                     Value hi)
    : index_(index), lo_(lo), hi_(hi) {}

std::string PartialIndexProbe::Describe() const {
  return PredicateToString(index_->column(), lo_, hi_);
}

Status PartialIndexProbe::Open(ExecContext*) {
  probed_ = false;
  pending_.clear();
  cursor_ = 0;
  page_latch_.Release();
  return Status::Ok();
}

Status PartialIndexProbe::ProbeOptimistically() {
  const Table& table = index_->table();
  PartitionLatchTable& latches = table.page_latches();
  auto probe = [&] {
    pending_.clear();
    if (lo_ == hi_) {
      index_->Lookup(lo_, &pending_);
    } else {
      index_->Scan(lo_, hi_,
                   [&](Value, const Rid& rid) { pending_.push_back(rid); });
    }
  };
  for (int attempt = 0; attempt < kMaxOptimisticRetries; ++attempt) {
    const uint64_t v0 = index_->version();
    probe();
    if (auto& hook = ProbeConflictHook(); hook) hook();
    // Translate the probed rids to dense page numbers — lock-free O(1)
    // directory reads — and latch exactly those pages' stripes shared. A
    // rid whose page cannot be resolved is a conflict in another guise
    // (the directory changed under the probe) and retries like a version
    // mismatch.
    PartitionLatchTable::StripeMask stripes = 0;
    bool translated = true;
    for (const Rid& rid : pending_) {
      const Result<size_t> page = table.PageNumberOf(rid);
      if (!page.ok()) {
        translated = false;
        break;
      }
      stripes |= latches.MaskOf(page.value());
    }
    if (translated) {
      page_latch_ = latches.AcquireShared(stripes);
      if (index_->version() == v0) return Status::Ok();
      page_latch_.Release();
    }
    RecordOptimisticRetry(latches.metrics());
  }
  // Pessimistic fallback: latch every stripe first, then probe once —
  // nothing can move between probe and fetch.
  RecordOptimisticFallback(latches.metrics());
  page_latch_ = latches.AcquireAllShared();
  probe();
  return Status::Ok();
}

Result<bool> PartialIndexProbe::NextBatch(TupleBatch* out) {
  out->Clear();
  if (!probed_) {
    probed_ = true;
    AIB_RETURN_IF_ERROR(ProbeOptimistically());
    ++stats_.ix_probes;
  }
  if (!EmitRidChunk(pending_, &cursor_, /*needs_fetch=*/true, out)) {
    return false;
  }
  stats_.rows_out += out->ActiveCount();
  return true;
}

Status PartialIndexProbe::Close() {
  page_latch_.Release();
  return Status::Ok();
}

// --- IndexBufferProbe -------------------------------------------------------

IndexBufferProbe::IndexBufferProbe(ColumnId column, Value lo, Value hi)
    : column_(column), lo_(lo), hi_(hi) {}

std::string IndexBufferProbe::Describe() const {
  return PredicateToString(column_, lo_, hi_);
}

Status IndexBufferProbe::Open(ExecContext*) {
  if (buffer_ == nullptr) {
    return Status::Internal("IndexBufferProbe opened without a bound buffer");
  }
  probed_ = false;
  pending_.clear();
  cursor_ = 0;
  // The historical stat: partitions present when the query arrived, before
  // Algorithm 2 drops any. Cold (demoted) partitions are probe-able too,
  // so they count — the tier split is reported via cold_probes.
  stats_.buffer_probes += buffer_->PartitionCount();
  stats_.buffer_probes += buffer_->ColdPartitionCount();
  return Status::Ok();
}

Result<bool> IndexBufferProbe::NextBatch(TupleBatch* out) {
  out->Clear();
  if (!probed_) {
    probed_ = true;
    IndexBuffer::ProbeTierStats tier;
    if (lo_ == hi_) {
      buffer_->Lookup(lo_, &pending_, &tier);
    } else {
      buffer_->Scan(
          lo_, hi_, [&](Value, const Rid& rid) { pending_.push_back(rid); },
          &tier);
    }
    stats_.buffer_matches += pending_.size();
    stats_.cold_probes += tier.cold_partitions;
    stats_.cold_matches += tier.cold_matches;
  }
  if (!EmitRidChunk(pending_, &cursor_, /*needs_fetch=*/true, out)) {
    return false;
  }
  stats_.rows_out += out->ActiveCount();
  return true;
}

Status IndexBufferProbe::Close() { return Status::Ok(); }

// --- CoveredOnSkippedFetch --------------------------------------------------

CoveredOnSkippedFetch::CoveredOnSkippedFetch(
    const PartialIndex* index, const Table* table, Value lo, Value hi,
    std::shared_ptr<const std::vector<bool>> skipped)
    : index_(index),
      table_(table),
      lo_(lo),
      hi_(hi),
      skipped_(std::move(skipped)) {}

std::string CoveredOnSkippedFetch::Describe() const {
  return PredicateToString(index_->column(), lo_, hi_);
}

Status CoveredOnSkippedFetch::Open(ExecContext*) {
  probed_ = false;
  pending_.clear();
  cursor_ = 0;
  return Status::Ok();
}

Result<bool> CoveredOnSkippedFetch::NextBatch(TupleBatch* out) {
  out->Clear();
  if (!probed_) {
    probed_ = true;
    const std::vector<bool>& skipped = *skipped_;
    Status page_status = Status::Ok();
    index_->Scan(lo_, hi_, [&](Value, const Rid& rid) {
      Result<size_t> page = table_->PageNumberOf(rid);
      if (!page.ok()) {
        page_status = page.status();
        return;
      }
      if (page.value() < skipped.size() && skipped[page.value()]) {
        pending_.push_back(rid);
      }
    });
    AIB_RETURN_IF_ERROR(page_status);
    ++stats_.ix_probes;
  }
  if (!EmitRidChunk(pending_, &cursor_, /*needs_fetch=*/true, out)) {
    return false;
  }
  stats_.rows_out += out->ActiveCount();
  return true;
}

Status CoveredOnSkippedFetch::Close() { return Status::Ok(); }

// --- IndexingTableScan ------------------------------------------------------

IndexingTableScan::IndexingTableScan(
    const Table* table, IndexBufferSpace* space, PartialIndex* index,
    IndexBufferOptions buffer_options,
    std::vector<ColumnPredicate> predicates,
    std::unique_ptr<PhysicalOperator> probe_pipeline, IndexBufferProbe* probe,
    std::unique_ptr<PhysicalOperator> tail_pipeline,
    std::shared_ptr<std::vector<bool>> snapshot)
    : table_(table),
      space_(space),
      index_(index),
      buffer_options_(buffer_options),
      predicates_(std::move(predicates)),
      probe_pipeline_(std::move(probe_pipeline)),
      probe_(probe),
      tail_pipeline_(std::move(tail_pipeline)),
      snapshot_(std::move(snapshot)) {}

std::string IndexingTableScan::Describe() const {
  return PredicatesToString(predicates_);
}

std::vector<const PhysicalOperator*> IndexingTableScan::Children() const {
  std::vector<const PhysicalOperator*> children;
  children.push_back(probe_pipeline_.get());
  if (tail_pipeline_ != nullptr) children.push_back(tail_pipeline_.get());
  return children;
}

Status IndexingTableScan::Open(ExecContext* ctx) {
  // Structural phase of the miss path. Buffer creation, the C[p] snapshot,
  // and Algorithm 2's victim selection + partition drops run under the
  // space's *structural* latch, so concurrent misses serialize their
  // adaptation decisions — but the latch is released before the probe
  // drain and the scan leg below (the expensive I/O), so indexing scans
  // filling different buffers overlap there. Two finer latches are kept
  // until Close:
  //   - every heap page stripe, shared (the scan reads any page; this also
  //     keeps DML of this table out for the scan's duration), and
  //   - this buffer's scan sentinel, exclusive (keeps a second scan of the
  //     same buffer, DML maintenance of it, and Algorithm 2 drops against
  //     it out).
  // Stripes are taken *before* the sentinel — the same order DML uses —
  // which is what makes DML's sentinel acquisition wait-free and Algorithm
  // 2's victim-drop wait cycle-free (see SelectPagesForBuffer). The morsel
  // workers of the scan leg never touch any of these latches (they are
  // read-only), so fanning out while holding them is deadlock-free.
  structural_ = std::unique_lock<std::shared_mutex>(space_->latch());

  IndexBuffer* buffer = space_->GetBuffer(index_);
  if (buffer == nullptr) {
    // "Multiple Index Buffers are created over time" (§IV) — on the first
    // miss of this column.
    AIB_ASSIGN_OR_RETURN(buffer,
                         space_->CreateBuffer(index_, buffer_options_));
  }
  buffer->counters().EnsureSize(table_->PageCount());
  probe_->BindBuffer(buffer);

  heap_latch_ = table_->page_latches().AcquireAllShared();
  sentinel_ =
      table_->page_latches().AcquireExclusiveTimed(buffer->scan_latch());

  // Promote the cold partitions this query's driving range will probe back
  // into the hot tier (demote mode; no-op under kDrop) *before* Algorithm 2
  // sizes the free budget — promoted entries are hot again and must be
  // charged against L. Runs under the structural latch + sentinel, so the
  // tier move is invisible to concurrent probes and DML.
  Value drive_lo = std::numeric_limits<Value>::min();
  Value drive_hi = std::numeric_limits<Value>::max();
  for (const ColumnPredicate& p : predicates_) {
    if (p.column == index_->column()) {
      drive_lo = p.lo;
      drive_hi = p.hi;
      break;
    }
  }
  const PromotionResult promoted =
      space_->PromoteForQuery(buffer, drive_lo, drive_hi);
  stats_.partitions_promoted = promoted.partitions;

  // Snapshot which pages the table scan will skip *before* Algorithm 2 and
  // the scan run: pages selected by Algorithm 2 get their counters zeroed
  // mid-scan, but they were scanned in this query, so the hybrid tail must
  // not re-report their covered matches.
  if (snapshot_ != nullptr) {
    snapshot_->assign(table_->PageCount(), false);
    for (size_t page = 0; page < table_->PageCount(); ++page) {
      (*snapshot_)[page] = buffer->counters().Get(page) == 0;
    }
  }

  // Probe opens before Algorithm 2 so buffer_probes reflects the arriving
  // partition count, but drains after it (drops change what the probe
  // sees — line 7 precedes lines 8-10).
  AIB_RETURN_IF_ERROR(probe_pipeline_->Open(ctx));

  // Line 7: I ← SelectPagesForBuffer().
  const PageSelection selection = space_->SelectPagesForBuffer(buffer);
  stats_.pages_selected = selection.pages.size();
  stats_.partitions_dropped = selection.partitions_dropped;
  stats_.entries_dropped = selection.entries_dropped;
  stats_.partitions_demoted = selection.partitions_demoted;
  stats_.entries_demoted = selection.entries_demoted;
  const std::unordered_set<size_t> selected(selection.pages.begin(),
                                            selection.pages.end());
  // Size the partition index structures for the bulk inserts the scan leg
  // is about to stage (C[p] bounds the entries each selected page adds).
  buffer->SetReserveHints(selection.pages);

  // Adaptation decisions are done: release the structural latch so misses
  // on other columns can run their Algorithm 2 while this scan drains. The
  // stripes and the sentinel keep this buffer and this table's heap stable.
  structural_.unlock();

  // Lines 8-10: drain the probe pipeline (buffer matches, possibly
  // residual-filtered).
  TupleBatch batch;
  for (;;) {
    AIB_ASSIGN_OR_RETURN(const bool more, probe_pipeline_->NextBatch(&batch));
    if (!more) break;
    batch.AppendSelectedTo(&probe_rids_);
  }

  // Lines 11-17: the indexing table scan (with fault degradation).
  AIB_RETURN_IF_ERROR(RunScanLeg(buffer, selected, ctx));

  if (tail_pipeline_ != nullptr) {
    AIB_RETURN_IF_ERROR(tail_pipeline_->Open(ctx));
  }
  probe_cursor_ = 0;
  scan_cursor_ = 0;
  stage_ = Stage::kProbe;
  return Status::Ok();
}

Status IndexingTableScan::RunScanLeg(IndexBuffer* buffer,
                                     const std::unordered_set<size_t>& selected,
                                     ExecContext* ctx) {
  IndexingScanFailure failure;
  const Status scan = MorselIndexingScan(*table_, buffer, selected,
                                         predicates_, *ctx, &scan_rids_,
                                         &stats_, &failure);
  if (scan.ok()) {
    // The scan just read every C[p] > 0 page cleanly — including any
    // quarantined ones, whose counters stay positive — so the pages are
    // demonstrably readable again and the quarantine can lift.
    space_->degradation().OnCleanScan(index_);
    return Status::Ok();
  }
  if (scan.IsTimeout() || scan.IsCancelled() || !failure.failed) {
    // Control aborts fire before a page is touched (buffer untouched), and
    // failures without a page report have nothing to repair.
    return scan;
  }

  AIB_RETURN_IF_ERROR(QuarantineAndRepair(buffer, failure));
  return PlainScanFallback(ctx);
}

Status IndexingTableScan::QuarantineAndRepair(
    IndexBuffer* buffer, const IndexingScanFailure& failure) {
  // Recovery-free repair: drop the failing page's whole partition (always
  // legal), then restore C[page] to its pre-scan value — the page may have
  // been partially indexed when the fault struck, in which case both the
  // partition's coverage and the per-page entry count DropPartition
  // restores from are wrong for this page.
  buffer->DropPartition(buffer->PartitionIdFor(failure.page));
  buffer->counters().Set(failure.page, failure.counter_before);
  space_->degradation().Quarantine(index_, failure.page);
  ++stats_.partitions_quarantined;

  // Re-validate the repaired buffer. Injection is suspended on this thread:
  // the checker reads through the same disk path, and a fresh injected
  // fault would make the verdict about the injector, not the buffer.
  FaultInjector::ScopedSuspend suspend;
  if (!CheckBufferConsistency(*table_, *buffer).ok()) {
    // The targeted repair was not enough — fall back to dropping the whole
    // buffer and rebuilding the counters from the table, the recovery-free
    // reset the paper guarantees is always available.
    buffer->Clear();
    AIB_RETURN_IF_ERROR(buffer->InitCounters());
  }
  return Status::Ok();
}

Status IndexingTableScan::PlainScanFallback(ExecContext* ctx) {
  stats_.degraded = true;
  // The plain scan reads every page and evaluates the whole conjunction, so
  // it subsumes the probe leg (buffer matches), the scan leg, and the
  // hybrid tail (covered matches on skipped pages).
  probe_rids_.clear();
  if (snapshot_ != nullptr) {
    snapshot_->assign(table_->PageCount(), false);
  }
  constexpr size_t kMaxFallbackAttempts = 4;
  Status status;
  for (size_t attempt = 0; attempt < kMaxFallbackAttempts; ++attempt) {
    scan_rids_.clear();
    size_t pages = 0;
    status = MorselPlainScan(*table_, predicates_, *ctx, &scan_rids_, &pages);
    stats_.pages_scanned += pages;
    if (status.ok() || status.IsTimeout() || status.IsCancelled()) {
      return status;
    }
    // Another injected fault hit the fallback itself; redraws are
    // independent, so a bounded restart is expected to get through.
  }
  return status;
}

Result<bool> IndexingTableScan::NextBatch(TupleBatch* out) {
  out->Clear();
  for (;;) {
    switch (stage_) {
      case Stage::kProbe:
        if (EmitRidChunk(probe_rids_, &probe_cursor_, /*needs_fetch=*/true,
                         out)) {
          stats_.rows_out += out->ActiveCount();
          return true;
        }
        stage_ = Stage::kScan;
        break;
      case Stage::kScan:
        if (EmitRidChunk(scan_rids_, &scan_cursor_, /*needs_fetch=*/false,
                         out)) {
          stats_.rows_out += out->ActiveCount();
          return true;
        }
        stage_ = tail_pipeline_ != nullptr ? Stage::kTail : Stage::kDone;
        break;
      case Stage::kTail: {
        AIB_ASSIGN_OR_RETURN(const bool more, tail_pipeline_->NextBatch(out));
        if (!more) {
          stage_ = Stage::kDone;
          return false;
        }
        stats_.rows_out += out->ActiveCount();
        return true;
      }
      case Stage::kDone:
        return false;
    }
  }
}

Status IndexingTableScan::Close() {
  Status status = probe_pipeline_->Close();
  if (tail_pipeline_ != nullptr) {
    const Status tail = tail_pipeline_->Close();
    if (status.ok()) status = tail;
  }
  // Reverse acquisition order: sentinel, then stripes, then the structural
  // latch (still owned only if Open failed before its mid-Open release).
  if (sentinel_.owns_lock()) sentinel_.unlock();
  heap_latch_.Release();
  if (structural_.owns_lock()) structural_.unlock();
  return status;
}

// --- Fetch ------------------------------------------------------------------

namespace {

/// Liveness-fetches the selected rids of `batch` through one heap call
/// (appending `columns`' values to `lanes` when given) and charges each
/// page not yet fetched in this statement to `stats->pages_fetched`.
Status FetchSelected(const Table& table, const TupleBatch& batch,
                     const std::vector<ColumnId>& columns,
                     std::vector<std::vector<Value>>* lanes,
                     ExecContext* ctx, OperatorStats* stats) {
  AIB_RETURN_IF_ERROR(
      table.heap().FetchLive(batch.rids, batch.sel, columns, lanes));
  PageId last = kInvalidPageId;
  for (const uint32_t index : batch.sel) {
    const PageId page = batch.rids[index].page_id;
    if (page != last && ctx->fetched_pages.Insert(page)) {
      ++stats->pages_fetched;
    }
    last = page;
  }
  return Status::Ok();
}

}  // namespace

// --- Filter -----------------------------------------------------------------

Filter::Filter(std::unique_ptr<PhysicalOperator> child, const Table* table,
               std::vector<ColumnPredicate> predicates)
    : child_(std::move(child)),
      table_(table),
      predicates_(std::move(predicates)),
      lanes_(predicates_.size()) {
  columns_.reserve(predicates_.size());
  for (const ColumnPredicate& p : predicates_) columns_.push_back(p.column);
}

std::string Filter::Describe() const {
  return PredicatesToString(predicates_);
}

std::vector<const PhysicalOperator*> Filter::Children() const {
  return {child_.get()};
}

Status Filter::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Result<bool> Filter::NextBatch(TupleBatch* out) {
  out->Clear();
  AIB_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(&input_));
  if (!more) return false;
  stats_.rows_in += input_.ActiveCount();
  // The residual's columns come back as lanes from the liveness fetch,
  // one entry per selected input rid, and refine a dense selection.
  for (std::vector<Value>& lane : lanes_) lane.clear();
  AIB_RETURN_IF_ERROR(
      FetchSelected(*table_, input_, columns_, &lanes_, ctx_, &stats_));
  sel_.resize(input_.ActiveCount());
  for (uint32_t i = 0; i < static_cast<uint32_t>(sel_.size()); ++i) {
    sel_[i] = i;
  }
  for (size_t i = 0; i < predicates_.size() && !sel_.empty(); ++i) {
    RefineSelectionInRange(lanes_[i], predicates_[i].lo, predicates_[i].hi,
                           &sel_);
  }
  for (const uint32_t k : sel_) {
    out->rids.push_back(input_.rids[input_.sel[k]]);
  }
  out->SetIdentitySelection();
  stats_.rows_out += out->ActiveCount();
  // Evaluating the residual fetched the tuples; nothing left to fetch.
  out->needs_fetch = false;
  return true;
}

Status Filter::Close() { return child_->Close(); }

// --- Materialize ------------------------------------------------------------

Materialize::Materialize(std::unique_ptr<PhysicalOperator> child)
    : child_(std::move(child)) {}

std::vector<const PhysicalOperator*> Materialize::Children() const {
  return {child_.get()};
}

Status Materialize::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Result<bool> Materialize::NextBatch(TupleBatch* out) {
  out->Clear();
  AIB_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(out));
  if (!more) return false;
  if (out->needs_fetch) {
    AIB_RETURN_IF_ERROR(
        FetchSelected(*ctx_->table, *out, {}, nullptr, ctx_, &stats_));
    out->needs_fetch = false;
  }
  stats_.rows_out += out->ActiveCount();
  return true;
}

Status Materialize::Close() { return child_->Close(); }

}  // namespace aib
