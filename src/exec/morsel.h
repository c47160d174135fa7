#ifndef AIB_EXEC_MORSEL_H_
#define AIB_EXEC_MORSEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/query_control.h"
#include "common/status.h"
#include "core/index_buffer.h"
#include "exec/operator.h"
#include "exec/query.h"
#include "storage/table.h"

namespace aib {

/// A contiguous page range pulled by one worker: the unit of intra-query
/// scan parallelism.
struct Morsel {
  size_t first_page = 0;
  size_t page_count = 0;
};

/// Splits [0, page_count) into morsels of about `morsel_pages` pages,
/// aligned so no morsel spans a multiple of `align_pages` (the Index
/// Buffer's partition size) — a morsel's staged inserts therefore land in
/// one partition, which keeps the per-partition merge a single contiguous
/// apply. `align_pages` == 0 disables alignment.
std::vector<Morsel> MakeMorsels(size_t page_count, size_t morsel_pages,
                                size_t align_pages = 0);

/// A small pool of helper threads that execute one indexed job at a time:
/// RunJob(count, body) invokes body(i) exactly once for every i in
/// [0, count), on the helpers *and the calling thread*. Caller
/// participation is what makes the dispatcher deadlock-free under the
/// indexing scan's latches: an IndexingTableScan holds its buffer's scan
/// sentinel exclusively (plus every heap stripe shared) while it fans out
/// its morsels, and the helpers never touch those latches — but even with
/// zero helpers (or all of them busy elsewhere) the latch holder itself
/// drains the job and progress is guaranteed.
///
/// Concurrent RunJob calls from different queries serialize on an internal
/// mutex; helpers idle between jobs. Distinct from the QueryService worker
/// pool on purpose: service workers can block on scan sentinels and heap
/// stripes, so borrowing them for morsels could strand a latch holder
/// behind threads waiting for those very latches.
class MorselDispatcher {
 public:
  /// `helper_threads` + the calling thread = worker parallelism. 0 helpers
  /// is legal and runs every job inline on the caller.
  explicit MorselDispatcher(size_t helper_threads);
  ~MorselDispatcher();

  MorselDispatcher(const MorselDispatcher&) = delete;
  MorselDispatcher& operator=(const MorselDispatcher&) = delete;

  /// Workers available to one job, caller included.
  size_t worker_count() const { return helpers_.size() + 1; }

  /// Runs body(i) exactly once for each i in [0, count); returns when all
  /// invocations finished. `body` must be thread-safe across distinct
  /// indices and must not throw.
  void RunJob(size_t count, const std::function<void(size_t)>& body);

 private:
  /// One fan-out. Heap-allocated and shared so a helper that wakes late —
  /// after the owning RunJob returned and a new job was installed — still
  /// holds the job it claimed indices from, never the new one.
  struct Job {
    const std::function<void(size_t)>* body = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  void HelperLoop();

  /// Serializes RunJob callers: one job at a time.
  std::mutex run_mu_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
  std::vector<std::thread> helpers_;
};

/// The lane columns a scan gathers for `predicates`: one per conjunct, in
/// predicate order (lane i is refined against predicates[i]).
std::vector<ColumnId> PredicateColumns(
    const std::vector<ColumnPredicate>& predicates);

/// Loads one heap page into `batch`: rids plus one key lane per column,
/// with the identity selection. One pinned pass over the page.
Status LoadPageBatch(const Table& table, size_t page,
                     const std::vector<ColumnId>& columns, TupleBatch* batch);

/// Plain table scan of the whole conjunction over every page, batch-kernel
/// per page (branch-free selection refinement). Appends matching rids to
/// `out` in physical order and adds the pages read to `*pages_scanned`.
///
/// With a dispatcher in `ctx` and a table at least
/// `ctx.parallel.min_pages_for_parallel` pages, the pages are fanned out
/// as morsels; results are merged in morsel order, so rids, page counts,
/// and the first-failure status are bit-identical to the serial run. On a
/// page failure, `out`/`pages_scanned` hold exactly the pages preceding
/// the failing page (the serial prefix) and the page's error is returned.
Status MorselPlainScan(const Table& table,
                       const std::vector<ColumnPredicate>& predicates,
                       const ExecContext& ctx, std::vector<Rid>* out,
                       size_t* pages_scanned);

/// Where an indexing scan failed, reported so the caller can repair the
/// Index Buffer (quarantine the page's partition and restore C[page] to
/// `counter_before`, the pre-scan value captured at failure time — the page
/// may have been partially indexed when the fault struck, which would
/// otherwise leave both the partition coverage and the counter wrong).
struct IndexingScanFailure {
  bool failed = false;
  size_t page = 0;
  uint32_t counter_before = 0;
};

/// The scan leg of Algorithm 1 (lines 11–17) over the morsel machinery:
/// skips C[p] == 0 pages, collects matches for predicates[0] ∈ [lo, hi]
/// AND the residual conjuncts, and indexes every uncovered tuple of pages
/// in `selected`. Adds pages_scanned, pages_skipped and entries_added to
/// `*stats`; fills `*failure` on a repairable page fault (not on a
/// deadline/cancel abort, which fires before a page is touched).
///
/// Parallel protocol: the caller already holds the buffer's scan sentinel
/// exclusively and every heap stripe shared (IndexingTableScan's
/// Open/Close scope). Workers are
/// strictly read-only — they read frozen C[p] counters, the immutable
/// partial-index coverage, and heap pages; every buffer mutation is staged
/// thread-locally per *complete* page. The calling thread then applies the
/// staged pages under the latches it already holds, in morsel order, up to
/// the first failed page — so AddTuple/MarkPageIndexed ordering, C[p]
/// accounting, `stats`, and the failure report are bit-identical to the
/// serial scan for any worker count. Injected page faults are whole-page
/// (they strike in FetchPage, before any tuple is seen), which is what
/// makes complete-page staging exact.
Status MorselIndexingScan(const Table& table, IndexBuffer* buffer,
                          const std::unordered_set<size_t>& selected,
                          const std::vector<ColumnPredicate>& predicates,
                          const ExecContext& ctx, std::vector<Rid>* out,
                          AccessPathCounters* stats,
                          IndexingScanFailure* failure);

}  // namespace aib

#endif  // AIB_EXEC_MORSEL_H_
