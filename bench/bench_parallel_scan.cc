// Perf + correctness gate for the morsel-parallel batch scan path.
//
// Three measurements over a scan-dominated workload (full plain scan of a
// table with a ~2% selective predicate, everything buffer-pool resident so
// the comparison is CPU-bound):
//
//   tuple     — the pre-batch per-tuple loop (ForEachTupleOnPage + branchy
//               predicate), inlined here as the baseline;
//   serial    — MorselPlainScan without a dispatcher (batch kernels, one
//               thread);
//   parallel  — MorselPlainScan with a MorselDispatcher at --workers.
//
// Each is the median of --reps repetitions after one warmup run
// (bench::MedianWallMs). Regression gates with --check:
//
//   1. determinism (always): rids and every deterministic counter must be
//      bit-identical between the serial run and parallel runs at worker
//      counts {2, 4, 8}, for the plain scan AND the indexing scan — the
//      latter also under a page-targeted injected read fault (the chaos
//      case), including the failure report and the Index Buffer state.
//   2. serial batch path must not be slower than the tuple path by >5%.
//   3. at 4+ workers on a 4+-core machine, parallel must be >= 2x serial
//      (skipped and reported as such on smaller machines — this container
//      check still runs gate 1 and 2 there).
//
// --json=PATH emits the numbers for CI artifacts (BENCH_parallel_scan.json).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/csv_writer.h"
#include "common/rng.h"
#include "core/index_buffer.h"
#include "exec/morsel.h"
#include "index/partial_index.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/table.h"

namespace aib {
namespace {

constexpr Value kValueMin = 1;
constexpr Value kValueMax = 50000;
constexpr Value kCoveredHi = 5000;

/// One self-contained database world. Chaos runs need a fresh one per
/// repetition AND a pool smaller than the table: injected faults are
/// one-shot against the DiskManager, so the target page must actually be
/// read from disk — a pool that still holds it from the coverage-counter
/// initialization scan would serve it without touching the injector.
struct World {
  DiskManager disk;
  BufferPool pool;
  Table table;
  std::unique_ptr<PartialIndex> index;

  World(size_t num_tuples, uint64_t seed, size_t pool_frames)
      : disk(8192),
        pool(&disk, pool_frames),
        table("t", Schema::PaperSchema(1, 16), &disk, &pool,
              HeapFileOptions{.max_tuples_per_page = 20}) {
    Rng rng(seed);
    for (size_t i = 0; i < num_tuples; ++i) {
      table.Insert(Tuple({static_cast<Value>(
                             rng.UniformInt(kValueMin, kValueMax))},
                         {"pay"}))
          .value();
    }
    index = std::make_unique<PartialIndex>(
        &table, 0, ValueCoverage::Range(kValueMin, kCoveredHi));
    index->Build().ok() || (std::abort(), true);
  }
};

/// The pre-batch scan loop, kept verbatim as the baseline the batch path
/// races against.
Status TupleScan(const Table& table, const ColumnPredicate& pred,
                 std::vector<Rid>* out, size_t* pages_scanned) {
  for (size_t page = 0; page < table.PageCount(); ++page) {
    AIB_RETURN_IF_ERROR(table.heap().ForEachTupleOnPage(
        page, [&](const Rid& rid, const Tuple& tuple) {
          if (pred.Matches(tuple.IntValue(table.schema(), 0))) {
            out->push_back(rid);
          }
        }));
    ++*pages_scanned;
  }
  return Status::Ok();
}

ExecContext MakeContext(const Table& table, MorselDispatcher* dispatcher) {
  ExecContext ctx;
  ctx.table = &table;
  ctx.dispatcher = dispatcher;
  return ctx;
}

struct IndexingRun {
  Status status = Status::Ok();
  std::vector<Rid> rids;
  AccessPathCounters stats;
  IndexingScanFailure failure;
  size_t total_entries = 0;
  size_t partition_count = 0;
  std::vector<uint32_t> counters;
};

/// Runs the indexing-scan leg on a fresh world at `workers`, optionally
/// with a one-shot read fault injected on page `fault_page`.
IndexingRun RunIndexingLeg(size_t num_tuples, uint64_t seed, size_t workers,
                           std::optional<size_t> fault_page) {
  // 256 frames << page count: the sequential counter-initialization scan
  // cycles the LRU, so by scan time every page (the fault target included)
  // is a real disk read.
  World world(num_tuples, seed, /*pool_frames=*/256);
  IndexBufferOptions options;
  options.partition_pages = std::max<size_t>(1, world.table.PageCount() / 8);
  IndexBuffer buffer(world.index.get(), options);
  buffer.InitCounters().ok() || (std::abort(), true);

  std::unordered_set<size_t> selected;
  for (size_t p = 0; p < world.table.PageCount(); ++p) {
    if (buffer.counters().Get(p) > 0) selected.insert(p);
  }
  buffer.SetReserveHints(
      std::vector<size_t>(selected.begin(), selected.end()));

  if (fault_page.has_value()) {
    world.disk.fault_injector().InjectPageFault(
        FaultOp::kRead, world.table.heap().page_ids()[*fault_page],
        FaultKind::kCorruption);
  }

  std::unique_ptr<MorselDispatcher> dispatcher;
  if (workers > 1) dispatcher = std::make_unique<MorselDispatcher>(workers - 1);
  ExecContext ctx = MakeContext(world.table, dispatcher.get());
  ctx.parallel.min_pages_for_parallel = 1;

  IndexingRun run;
  std::vector<ColumnPredicate> predicates = {
      {0, kCoveredHi + 1, kCoveredHi + 1000}};
  run.status = MorselIndexingScan(world.table, &buffer, selected, predicates,
                                  ctx, &run.rids, &run.stats, &run.failure);
  run.total_entries = buffer.TotalEntries();
  run.partition_count = buffer.PartitionCount();
  run.counters.reserve(world.table.PageCount());
  for (size_t p = 0; p < world.table.PageCount(); ++p) {
    run.counters.push_back(buffer.counters().Get(p));
  }
  return run;
}

bool SameRun(const IndexingRun& a, const IndexingRun& b, std::string* why) {
  auto fail = [&](const char* what) {
    *why = what;
    return false;
  };
  if (a.status.ToString() != b.status.ToString()) return fail("status");
  if (a.rids != b.rids) return fail("rids");
  if (a.stats.pages_scanned != b.stats.pages_scanned) return fail("pages_scanned");
  if (a.stats.pages_skipped != b.stats.pages_skipped) return fail("pages_skipped");
  if (a.stats.entries_added != b.stats.entries_added) return fail("entries_added");
  if (a.stats.buffer_matches != b.stats.buffer_matches) return fail("buffer_matches");
  if (a.failure.failed != b.failure.failed) return fail("failure.failed");
  if (a.failure.page != b.failure.page) return fail("failure.page");
  if (a.failure.counter_before != b.failure.counter_before) {
    return fail("failure.counter_before");
  }
  if (a.total_entries != b.total_entries) return fail("total_entries");
  if (a.partition_count != b.partition_count) return fail("partition_count");
  if (a.counters != b.counters) return fail("counters");
  return true;
}

int Run(const bench::BenchArgs& args) {
  const size_t hw = std::thread::hardware_concurrency();
  // Capacity above the page count: after warmup every page is resident and
  // the timed comparison is the CPU cost of the scan kernels.
  World world(args.num_tuples, args.seed, args.num_tuples / 10 + 64);
  const size_t pages = world.table.PageCount();
  const ColumnPredicate pred = {0, kCoveredHi + 1, kCoveredHi + 1000};

  std::cout << "Parallel-scan bench — " << args.num_tuples << " tuples, "
            << pages << " pages, workers=" << args.workers
            << ", reps=" << args.reps << ", hw_concurrency=" << hw << "\n\n";

  // --- Timing ---------------------------------------------------------------
  std::vector<Rid> scratch;
  size_t scratch_pages = 0;
  const double tuple_ms = bench::MedianWallMs(args.reps, [&] {
    scratch.clear();
    scratch_pages = 0;
    TupleScan(world.table, pred, &scratch, &scratch_pages).ok() || (std::abort(), true);
  });
  const std::vector<Rid> tuple_rids = scratch;

  ExecContext serial_ctx = MakeContext(world.table, nullptr);
  const double serial_ms = bench::MedianWallMs(args.reps, [&] {
    scratch.clear();
    scratch_pages = 0;
    MorselPlainScan(world.table, {pred}, serial_ctx, &scratch, &scratch_pages)
        .ok() || (std::abort(), true);
  });
  const std::vector<Rid> serial_rids = scratch;

  MorselDispatcher dispatcher(args.workers > 0 ? args.workers - 1 : 0);
  ExecContext parallel_ctx = MakeContext(world.table, &dispatcher);
  const double parallel_ms = bench::MedianWallMs(args.reps, [&] {
    scratch.clear();
    scratch_pages = 0;
    MorselPlainScan(world.table, {pred}, parallel_ctx, &scratch,
                    &scratch_pages)
        .ok() || (std::abort(), true);
  });
  const std::vector<Rid> parallel_rids = scratch;

  const double batch_vs_tuple = serial_ms / tuple_ms;
  const double speedup = serial_ms / parallel_ms;
  std::printf("tuple path:     %8.3f ms\n", tuple_ms);
  std::printf("batch serial:   %8.3f ms  (%.3fx of tuple)\n", serial_ms,
              batch_vs_tuple);
  std::printf("batch %zu-way:    %8.3f ms  (%.2fx vs serial)\n\n",
              args.workers, parallel_ms, speedup);

  // --- Determinism ----------------------------------------------------------
  bool determinism_ok =
      tuple_rids == serial_rids && serial_rids == parallel_rids;
  if (!determinism_ok) {
    std::cout << "plain-scan rids differ between paths\n";
  }
  bool chaos_ok = true;
  const IndexingRun clean_ref =
      RunIndexingLeg(args.num_tuples, args.seed, 1, std::nullopt);
  const IndexingRun chaos_ref =
      RunIndexingLeg(args.num_tuples, args.seed, 1, pages / 2);
  if (!chaos_ref.failure.failed) {
    std::cout << "chaos reference run did not observe the injected fault\n";
    chaos_ok = false;
  }
  for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
    std::string why;
    const IndexingRun clean =
        RunIndexingLeg(args.num_tuples, args.seed, workers, std::nullopt);
    if (!SameRun(clean_ref, clean, &why)) {
      std::cout << "indexing scan @" << workers << " workers differs: " << why
                << "\n";
      determinism_ok = false;
    }
    const IndexingRun chaos =
        RunIndexingLeg(args.num_tuples, args.seed, workers, pages / 2);
    if (!SameRun(chaos_ref, chaos, &why)) {
      std::cout << "chaos indexing scan @" << workers
                << " workers differs: " << why << "\n";
      chaos_ok = false;
    }
  }
  std::cout << "determinism (serial == parallel, all counters): "
            << (determinism_ok ? "OK" : "FAIL") << "\n"
            << "chaos determinism (injected fault, identical prefix): "
            << (chaos_ok ? "OK" : "FAIL") << "\n\n";

  // --- Gates ----------------------------------------------------------------
  int failures = 0;
  if (!determinism_ok || !chaos_ok) ++failures;
  const bool serial_gate = batch_vs_tuple <= 1.05;
  std::cout << "serial gate:   batch/tuple " << FormatDouble(batch_vs_tuple, 3)
            << " <= 1.05: " << (serial_gate ? "OK" : "FAIL") << "\n";
  if (!serial_gate) ++failures;
  const bool can_gate_parallel = hw >= 4 && args.workers >= 4;
  if (can_gate_parallel) {
    const bool parallel_gate = speedup >= 2.0;
    std::cout << "parallel gate: speedup " << FormatDouble(speedup, 2)
              << " >= 2.0 at " << args.workers
              << " workers: " << (parallel_gate ? "OK" : "FAIL") << "\n";
    if (!parallel_gate) ++failures;
  } else {
    std::cout << "parallel gate: skipped (hw_concurrency=" << hw
              << ", workers=" << args.workers << "; needs both >= 4)\n";
  }

  if (args.json_path.has_value()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"parallel_scan\",\n"
         << "  \"scale\": \"" << args.scale << "\",\n"
         << "  \"pages\": " << pages << ",\n"
         << "  \"workers\": " << args.workers << ",\n"
         << "  \"hardware_concurrency\": " << hw << ",\n"
         << "  \"tuple_ms\": " << FormatDouble(tuple_ms, 3) << ",\n"
         << "  \"batch_serial_ms\": " << FormatDouble(serial_ms, 3) << ",\n"
         << "  \"parallel_ms\": " << FormatDouble(parallel_ms, 3) << ",\n"
         << "  \"batch_vs_tuple\": " << FormatDouble(batch_vs_tuple, 3)
         << ",\n"
         << "  \"speedup_vs_serial\": " << FormatDouble(speedup, 3) << ",\n"
         << "  \"determinism_ok\": " << (determinism_ok ? "true" : "false")
         << ",\n"
         << "  \"chaos_determinism_ok\": " << (chaos_ok ? "true" : "false")
         << "\n}\n";
    std::ofstream out(*args.json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path->c_str());
      return 1;
    }
    out << json.str();
  }

  if (!args.check) return (determinism_ok && chaos_ok) ? 0 : 1;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
