#include "exec/morsel.h"

#include <algorithm>
#include <utility>

#include "exec/batch.h"

namespace aib {

std::vector<Morsel> MakeMorsels(size_t page_count, size_t morsel_pages,
                                size_t align_pages) {
  std::vector<Morsel> morsels;
  if (page_count == 0) return morsels;
  if (morsel_pages == 0) morsel_pages = 1;
  size_t page = 0;
  while (page < page_count) {
    size_t limit = page_count;
    if (align_pages > 0) {
      // Clamp to the next partition boundary so the morsel stays inside
      // one Index Buffer partition.
      const size_t boundary = (page / align_pages + 1) * align_pages;
      limit = std::min(limit, boundary);
    }
    const size_t count = std::min(morsel_pages, limit - page);
    morsels.push_back({page, count});
    page += count;
  }
  return morsels;
}

// --- MorselDispatcher -------------------------------------------------------

MorselDispatcher::MorselDispatcher(size_t helper_threads) {
  helpers_.reserve(helper_threads);
  for (size_t i = 0; i < helper_threads; ++i) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

MorselDispatcher::~MorselDispatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& helper : helpers_) {
    if (helper.joinable()) helper.join();
  }
}

void MorselDispatcher::RunJob(size_t count,
                              const std::function<void(size_t)>& body) {
  if (count == 0) return;
  std::lock_guard<std::mutex> run_lock(run_mu_);
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->count = count;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
  }
  work_cv_.notify_all();
  // The caller participates like any helper — with zero (or busy) helpers
  // the job still drains, which is what keeps the space-latch holder from
  // ever waiting on threads that could be blocked behind its own latch.
  for (;;) {
    const size_t index = job->next.fetch_add(1, std::memory_order_relaxed);
    if (index >= count) break;
    (*job->body)(index);
    job->done.fetch_add(1, std::memory_order_acq_rel);
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) == count;
  });
  job_ = nullptr;
}

void MorselDispatcher::HelperLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ ||
               (job_ != nullptr &&
                job_->next.load(std::memory_order_relaxed) < job_->count);
      });
      if (stop_) return;
      job = job_;
    }
    for (;;) {
      const size_t index = job->next.fetch_add(1, std::memory_order_relaxed);
      if (index >= job->count) break;
      (*job->body)(index);
      if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job->count) {
        // Last index of the job: wake the owner waiting in RunJob. The
        // lock orders the notification against the owner's wait.
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
    // The shared_ptr keeps the exhausted Job alive even if the owner has
    // already installed a new one; the next wait re-reads job_.
  }
}

// --- Scan kernels -----------------------------------------------------------

std::vector<ColumnId> PredicateColumns(
    const std::vector<ColumnPredicate>& predicates) {
  std::vector<ColumnId> columns;
  columns.reserve(predicates.size());
  for (const ColumnPredicate& p : predicates) columns.push_back(p.column);
  return columns;
}

Status LoadPageBatch(const Table& table, size_t page,
                     const std::vector<ColumnId>& columns,
                     TupleBatch* batch) {
  batch->Clear();
  batch->lanes.resize(columns.size());
  AIB_RETURN_IF_ERROR(table.heap().GatherColumnsOnPage(
      page, columns, &batch->rids, &batch->lanes));
  batch->SetIdentitySelection();
  return Status::Ok();
}

namespace {

/// Per-page output staged by a worker. Faults strike whole pages (the
/// injector fails the FetchPage, before any tuple is visited), so a page
/// is either complete here or absent.
struct PageWork {
  size_t page = 0;
  bool skipped = false;
  bool selected = false;
  std::vector<Rid> matches;
  /// (value, rid) of every uncovered tuple on a selected page — the
  /// thread-local staging of the Index Buffer inserts.
  std::vector<std::pair<Value, Rid>> inserts;
};

struct MorselSlot {
  /// Pages of the morsel in page order, stopping before the failed page.
  std::vector<PageWork> pages;
  Status status = Status::Ok();
  /// True for repairable I/O faults; false for control (deadline/cancel)
  /// aborts, which have nothing to repair.
  bool failed = false;
  size_t failed_page = 0;
  uint32_t counter_before = 0;
};

void ProcessPlainMorsel(const Table& table,
                        const std::vector<ColumnPredicate>& predicates,
                        const std::vector<ColumnId>& columns,
                        const ExecContext& ctx, const Morsel& morsel,
                        MorselSlot* slot) {
  TupleBatch batch;
  for (size_t i = 0; i < morsel.page_count; ++i) {
    const size_t page = morsel.first_page + i;
    if (ctx.control != nullptr) {
      if (Status s = ctx.control->Check(); !s.ok()) {
        slot->status = s;
        return;
      }
    }
    if (Status s = LoadPageBatch(table, page, columns, &batch); !s.ok()) {
      slot->status = s;
      slot->failed = true;
      slot->failed_page = page;
      return;
    }
    RefineSelection(predicates, &batch);
    PageWork work;
    work.page = page;
    work.matches.reserve(batch.sel.size());
    batch.AppendSelectedTo(&work.matches);
    slot->pages.push_back(std::move(work));
  }
}

Status ApplyPlainSlot(const MorselSlot& slot, std::vector<Rid>* out,
                      size_t* pages_scanned) {
  for (const PageWork& work : slot.pages) {
    out->insert(out->end(), work.matches.begin(), work.matches.end());
    ++*pages_scanned;
  }
  return slot.status;
}

void ProcessIndexingMorsel(const Table& table, const IndexBuffer& buffer,
                           const std::unordered_set<size_t>& selected,
                           const std::vector<ColumnPredicate>& predicates,
                           const std::vector<ColumnId>& columns,
                           const ExecContext& ctx, const Morsel& morsel,
                           MorselSlot* slot) {
  // Read-only against shared state: frozen C[p] counters (the apply phase
  // runs only after every worker finished), immutable coverage, heap pages.
  const PageCounters& counters = buffer.counters();
  const PartialIndex& index = buffer.partial_index();
  TupleBatch batch;
  for (size_t i = 0; i < morsel.page_count; ++i) {
    const size_t page = morsel.first_page + i;
    if (counters.Get(page) == 0) {
      PageWork work;
      work.page = page;
      work.skipped = true;
      slot->pages.push_back(std::move(work));
      continue;
    }
    // Control check before the page is touched: an abort never leaves a
    // partially processed page.
    if (ctx.control != nullptr) {
      if (Status s = ctx.control->Check(); !s.ok()) {
        slot->status = s;
        return;
      }
    }
    if (Status s = LoadPageBatch(table, page, columns, &batch); !s.ok()) {
      // MarkPageIndexed has not run (it happens at apply time), so the
      // counter read here is the pre-scan value the repair path restores.
      slot->status = s;
      slot->failed = true;
      slot->failed_page = page;
      slot->counter_before = counters.Get(page);
      return;
    }
    PageWork work;
    work.page = page;
    work.selected = selected.contains(page);
    RefineSelection(predicates, &batch);
    work.matches.reserve(batch.sel.size());
    batch.AppendSelectedTo(&work.matches);
    if (work.selected) {
      // Buffer insertion is predicate-blind: every uncovered tuple of a
      // selected page is staged regardless of match.
      const std::vector<Value>& lane = batch.lanes.front();
      for (size_t r = 0; r < batch.rids.size(); ++r) {
        if (!index.Covers(lane[r])) {
          work.inserts.emplace_back(lane[r], batch.rids[r]);
        }
      }
    }
    slot->pages.push_back(std::move(work));
  }
}

Status ApplyIndexingSlot(const MorselSlot& slot, IndexBuffer* buffer,
                         std::vector<Rid>* out, AccessPathCounters* stats,
                         IndexingScanFailure* failure) {
  for (const PageWork& work : slot.pages) {
    if (work.skipped) {
      ++stats->pages_skipped;
      continue;
    }
    out->insert(out->end(), work.matches.begin(), work.matches.end());
    for (const auto& [value, rid] : work.inserts) {
      buffer->AddTuple(work.page, value, rid);
    }
    stats->entries_added += work.inserts.size();
    if (work.selected) buffer->MarkPageIndexed(work.page);
    ++stats->pages_scanned;
  }
  if (!slot.status.ok() && slot.failed) {
    failure->failed = true;
    failure->page = slot.failed_page;
    failure->counter_before = slot.counter_before;
  }
  return slot.status;
}

/// The one morsel loop: process(morsel, slot) stages each morsel — fanned
/// out to the dispatcher when the table is large enough, inline otherwise
/// — and apply(slot) consumes the slots on the calling thread in morsel
/// order, stopping at the first slot that carries an error. Inline runs
/// apply each morsel right after staging it; either way the applied
/// prefix, and so every result and counter, is the serial one.
template <typename Process, typename Apply>
Status RunMorsels(const ExecContext& ctx, size_t page_count,
                  const std::vector<Morsel>& morsels, const Process& process,
                  const Apply& apply) {
  const bool parallel = ctx.dispatcher != nullptr &&
                        ctx.dispatcher->worker_count() > 1 &&
                        page_count >= ctx.parallel.min_pages_for_parallel;
  if (!parallel) {
    for (const Morsel& morsel : morsels) {
      MorselSlot slot;
      process(morsel, &slot);
      AIB_RETURN_IF_ERROR(apply(slot));
    }
    return Status::Ok();
  }
  std::vector<MorselSlot> slots(morsels.size());
  ctx.dispatcher->RunJob(morsels.size(),
                         [&](size_t i) { process(morsels[i], &slots[i]); });
  for (const MorselSlot& slot : slots) AIB_RETURN_IF_ERROR(apply(slot));
  return Status::Ok();
}

}  // namespace

Status MorselPlainScan(const Table& table,
                       const std::vector<ColumnPredicate>& predicates,
                       const ExecContext& ctx, std::vector<Rid>* out,
                       size_t* pages_scanned) {
  const std::vector<ColumnId> columns = PredicateColumns(predicates);
  const size_t page_count = table.PageCount();
  return RunMorsels(
      ctx, page_count, MakeMorsels(page_count, ctx.parallel.morsel_pages),
      [&](const Morsel& morsel, MorselSlot* slot) {
        ProcessPlainMorsel(table, predicates, columns, ctx, morsel, slot);
      },
      [&](const MorselSlot& slot) {
        return ApplyPlainSlot(slot, out, pages_scanned);
      });
}

Status MorselIndexingScan(const Table& table, IndexBuffer* buffer,
                          const std::unordered_set<size_t>& selected,
                          const std::vector<ColumnPredicate>& predicates,
                          const ExecContext& ctx, std::vector<Rid>* out,
                          AccessPathCounters* stats,
                          IndexingScanFailure* failure) {
  buffer->counters().EnsureSize(table.PageCount());
  const std::vector<ColumnId> columns = PredicateColumns(predicates);
  const size_t page_count = table.PageCount();
  // Partition-aligned morsels: a morsel's staged inserts land in exactly
  // one Index Buffer partition. Workers only read; every buffer mutation
  // happens in apply, under the latches the caller holds.
  return RunMorsels(
      ctx, page_count,
      MakeMorsels(page_count, ctx.parallel.morsel_pages,
                  buffer->options().partition_pages),
      [&](const Morsel& morsel, MorselSlot* slot) {
        ProcessIndexingMorsel(table, *buffer, selected, predicates, columns,
                              ctx, morsel, slot);
      },
      [&](const MorselSlot& slot) {
        return ApplyIndexingSlot(slot, buffer, out, stats, failure);
      });
}

}  // namespace aib
