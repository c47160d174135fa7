// Perf + correctness gate for shared scans over the segmented
// (scan-resistant) buffer pool.
//
// Leg A — scan fan-in. N identical full scans of an unindexed column run
// through a QueryService over a buffer pool a quarter the size of the
// table, in three configurations:
//
//   baseline  — pure LRU eviction, shared scans off, one service worker:
//               the N scans run one after another and each pays its own
//               pass. The pool is smaller than the table, so a sequential
//               pass under LRU never finds a page it left behind and the
//               reuse ratio is exactly 1 by construction;
//   control   — pure LRU eviction, shared scans on, fan-in 1 only: the
//               wall-gate reference that differs from `shared` only in
//               the eviction policy;
//   shared    — segmented eviction + shared scans, N service workers: the
//               concurrent scans join one cooperative pass.
//
// The page-reuse ratio (exec.scan_pages_served / storage.pages_read,
// measured as deltas around the timed region) is the paper-facing number:
// pages delivered to scan consumers per page fetched from disk.
//
// Leg B — eviction thrash. A deterministic single-threaded BufferPool
// workload: a small hot set is re-referenced while a long sequential
// sweep floods the pool. Under pure LRU the sweep evicts the hot set
// every round; under the segmented policy the promoted hot set is
// untouchable by single-touch sweep pages.
//
// Gates with --check:
//   1. correctness (always): sorted rids identical between baseline,
//      control and shared at every fan-in.
//   2. reuse ratio at fan-in 8: shared >= 1.5x baseline.
//   3. wall clock at fan-in 1: shared <= control * 1.30 + 5 ms — segmented
//      eviction must not tax a solo scan.
//   4. thrash: segmented hot-set hit rate >= 0.75 and >= LRU + 0.25.
//
// --json=PATH emits the numbers for CI artifacts (BENCH_scan_fanin.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/database.h"

namespace aib {
namespace {

constexpr Value kValueMin = 1;
constexpr Value kValueMax = 50000;

struct Config {
  const char* name;
  EvictionPolicy policy;
  bool shared_scans;
  /// Runs the N scans of a batch through a single service worker, one
  /// after another, instead of N concurrent workers.
  bool one_worker;
};

/// The classic solo-pass LRU buffer manager the paper compares against:
/// every scan pays its own pass, one scan at a time.
constexpr Config kBaseline = {"baseline", EvictionPolicy::kLru,
                              /*shared_scans=*/false, /*one_worker=*/true};
/// Shared scans over a pure LRU pool. The control for the wall gate: it
/// isolates the cost of segmented eviction from the cost of the
/// shared-scan machinery, whose per-page attach window taxes solo scans
/// by design (see SharedScanManager).
constexpr Config kControl = {"control", EvictionPolicy::kLru,
                             /*shared_scans=*/true, /*one_worker=*/false};
constexpr Config kShared = {"shared", EvictionPolicy::kSegmented,
                            /*shared_scans=*/true, /*one_worker=*/false};

struct FanInResult {
  double wall_ms = 0;
  double reuse_ratio = 0;
  int64_t pages_read = 0;
  int64_t pages_served = 0;
  std::vector<Rid> sorted_rids;  // of one scan (all scans return the same)
};

/// Builds a fresh single-table world whose buffer pool holds only a
/// quarter of the table, so full scans are eviction-bound and reuse across
/// concurrent scans is the only way to save page reads.
std::unique_ptr<Database> MakeWorld(const bench::BenchArgs& args,
                                    const Config& config) {
  DatabaseOptions options;
  options.enable_index_buffer = false;
  options.eviction_policy = config.policy;
  // Sized after the table below: ~20 tuples/page.
  options.buffer_pool_pages = std::max<size_t>(64, args.num_tuples / 20 / 4);
  options.max_tuples_per_page = 20;
  auto db = std::make_unique<Database>(Schema::PaperSchema(1, 16), options);
  Rng rng(args.seed);
  for (size_t i = 0; i < args.num_tuples; ++i) {
    db->LoadTuple(Tuple({static_cast<Value>(
                            rng.UniformInt(kValueMin, kValueMax))},
                        {"pay"}))
        .value();
  }
  return db;
}

/// Runs `fanin` identical full scans (concurrently, unless the config has
/// one worker) and reports the median wall time over args.reps batches
/// plus reuse-ratio deltas accumulated across the timed batches.
FanInResult RunFanIn(const bench::BenchArgs& args, const Config& config,
                     size_t fanin) {
  std::unique_ptr<Database> db = MakeWorld(args, config);
  QueryServiceOptions service_options;
  service_options.num_workers = config.one_worker ? 1 : fanin;
  service_options.queue_capacity = fanin * 4;
  service_options.shared_scans = config.shared_scans;
  QueryService service(db->executor(), service_options);
  // The whole uncovered range: a non-point predicate on a column with no
  // partial index, so it takes the full-scan path (shared when enabled).
  const Query query = Query::Range(0, 5001, kValueMax);

  FanInResult result;
  auto run_batch = [&] {
    std::vector<std::future<Result<StatementResult>>> futures;
    futures.reserve(fanin);
    for (size_t i = 0; i < fanin; ++i) {
      futures.push_back(service.Submit(Statement::Select(query)).value());
    }
    for (size_t i = 0; i < fanin; ++i) {
      Result<StatementResult> r = futures[i].get();
      if (!r.ok()) {
        std::fprintf(stderr, "scan failed: %s\n", r.status().ToString().c_str());
        std::abort();
      }
      if (i == 0) {
        result.sorted_rids = r.value().rids;
        std::sort(result.sorted_rids.begin(), result.sorted_rids.end());
      }
    }
  };

  run_batch();  // warmup (also primes the pool to its steady state)
  const int64_t served0 = db->metrics().Get(kMetricScanPagesServed);
  const int64_t read0 = db->metrics().Get(kMetricPagesRead);
  result.wall_ms = bench::MedianWallMs(args.reps, run_batch);
  // MedianWallMs runs one extra warmup batch; the deltas below span all
  // reps + 1 batches, which is fine — the ratio is scale-free.
  result.pages_served = db->metrics().Get(kMetricScanPagesServed) - served0;
  result.pages_read = db->metrics().Get(kMetricPagesRead) - read0;
  result.reuse_ratio =
      result.pages_read == 0
          ? 0
          : static_cast<double>(result.pages_served) / result.pages_read;
  return result;
}

struct ThrashResult {
  double hot_hit_rate = 0;
};

/// Deterministic eviction-thrash microbenchmark: 16 hot pages re-fetched
/// between rounds of a 1000-page sequential sweep through a 64-frame pool.
ThrashResult RunThrash(EvictionPolicy policy) {
  constexpr size_t kFrames = 64;
  constexpr size_t kHotPages = 16;
  constexpr size_t kSweepPages = 1000;
  constexpr size_t kSweepStride = 100;  // hot round every 100 sweep pages

  DiskManager disk(4096);
  BufferPoolOptions options;
  options.policy = policy;
  BufferPool pool(&disk, kFrames, nullptr, options);

  std::vector<PageId> hot;
  for (size_t i = 0; i < kHotPages; ++i) hot.push_back(disk.AllocatePage());
  std::vector<PageId> sweep;
  for (size_t i = 0; i < kSweepPages; ++i) sweep.push_back(disk.AllocatePage());

  auto touch = [&](PageId id) {
    pool.FetchPage(id).value();
    (void)pool.UnpinPage(id, false);
  };
  // Two passes over the hot set: the second is the re-reference that
  // promotes each hot page into the protected segment (kSegmented).
  for (PageId id : hot) touch(id);
  for (PageId id : hot) touch(id);

  size_t hot_accesses = 0;
  size_t hot_hits = 0;
  for (size_t s = 0; s < kSweepPages; ++s) {
    touch(sweep[s]);
    if ((s + 1) % kSweepStride == 0) {
      for (PageId id : hot) {
        const int64_t misses_before = pool.misses();
        touch(id);
        ++hot_accesses;
        if (pool.misses() == misses_before) ++hot_hits;
      }
    }
  }
  ThrashResult result;
  result.hot_hit_rate =
      hot_accesses == 0 ? 0 : static_cast<double>(hot_hits) / hot_accesses;
  return result;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

int Run(const bench::BenchArgs& args) {
  std::cout << "Scan fan-in bench — " << args.num_tuples
            << " tuples, reps=" << args.reps << "\n\n";

  const std::vector<size_t> fanins = {1, 8};
  std::vector<FanInResult> baseline_runs;
  std::vector<FanInResult> shared_runs;
  const FanInResult control_run = RunFanIn(args, kControl, 1);
  bool correctness_ok = true;
  for (size_t fanin : fanins) {
    baseline_runs.push_back(RunFanIn(args, kBaseline, fanin));
    shared_runs.push_back(RunFanIn(args, kShared, fanin));
    const FanInResult& base = baseline_runs.back();
    const FanInResult& shared = shared_runs.back();
    if (base.sorted_rids != shared.sorted_rids) {
      std::cout << "rids differ between configs at fan-in " << fanin << "\n";
      correctness_ok = false;
    }
    std::printf("fan-in %zu:\n", fanin);
    std::printf("  baseline: %8.3f ms  reuse %5.2f  (%lld served / %lld read)\n",
                base.wall_ms, base.reuse_ratio,
                static_cast<long long>(base.pages_served),
                static_cast<long long>(base.pages_read));
    if (fanin == 1) {
      std::printf("  control:  %8.3f ms  reuse %5.2f\n", control_run.wall_ms,
                  control_run.reuse_ratio);
    }
    std::printf("  shared:   %8.3f ms  reuse %5.2f  (%lld served / %lld read)\n",
                shared.wall_ms, shared.reuse_ratio,
                static_cast<long long>(shared.pages_served),
                static_cast<long long>(shared.pages_read));
  }
  if (control_run.sorted_rids != shared_runs[0].sorted_rids) {
    std::cout << "rids differ between control and shared\n";
    correctness_ok = false;
  }

  const ThrashResult lru_thrash = RunThrash(EvictionPolicy::kLru);
  const ThrashResult seg_thrash = RunThrash(EvictionPolicy::kSegmented);
  std::printf("\nthrash hot-set hit rate: lru %.3f, segmented %.3f\n\n",
              lru_thrash.hot_hit_rate, seg_thrash.hot_hit_rate);

  // --- Gates ----------------------------------------------------------------
  int failures = 0;
  std::cout << "correctness (baseline rids == shared rids): "
            << (correctness_ok ? "OK" : "FAIL") << "\n";
  if (!correctness_ok) ++failures;

  const double reuse_base = baseline_runs[1].reuse_ratio;
  const double reuse_shared = shared_runs[1].reuse_ratio;
  const bool reuse_gate = reuse_shared >= 1.5 * reuse_base;
  std::cout << "reuse gate:  shared " << FormatDouble(reuse_shared, 2)
            << " >= 1.5 x baseline " << FormatDouble(reuse_base, 2)
            << " at fan-in 8: " << (reuse_gate ? "OK" : "FAIL") << "\n";
  if (!reuse_gate) ++failures;

  const double wall_control = control_run.wall_ms;
  const double wall_shared = shared_runs[0].wall_ms;
  const bool wall_gate = wall_shared <= wall_control * 1.30 + 5.0;
  std::cout << "wall gate:   shared " << FormatDouble(wall_shared, 3)
            << " ms <= control " << FormatDouble(wall_control, 3)
            << " x 1.30 + 5 ms at fan-in 1: " << (wall_gate ? "OK" : "FAIL")
            << "\n";
  if (!wall_gate) ++failures;

  const bool thrash_gate =
      seg_thrash.hot_hit_rate >= 0.75 &&
      seg_thrash.hot_hit_rate >= lru_thrash.hot_hit_rate + 0.25;
  std::cout << "thrash gate: segmented "
            << FormatDouble(seg_thrash.hot_hit_rate, 3)
            << " >= 0.75 and >= lru "
            << FormatDouble(lru_thrash.hot_hit_rate, 3)
            << " + 0.25: " << (thrash_gate ? "OK" : "FAIL") << "\n";
  if (!thrash_gate) ++failures;

  if (args.json_path.has_value()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"scan_fanin\",\n"
         << "  \"scale\": \"" << args.scale << "\",\n"
         << "  \"fanin_1\": {\n"
         << "    \"baseline_ms\": "
         << FormatDouble(baseline_runs[0].wall_ms, 3) << ",\n"
         << "    \"control_ms\": " << FormatDouble(wall_control, 3) << ",\n"
         << "    \"shared_ms\": " << FormatDouble(wall_shared, 3) << ",\n"
         << "    \"baseline_reuse\": "
         << FormatDouble(baseline_runs[0].reuse_ratio, 3) << ",\n"
         << "    \"shared_reuse\": "
         << FormatDouble(shared_runs[0].reuse_ratio, 3) << "\n"
         << "  },\n"
         << "  \"fanin_8\": {\n"
         << "    \"baseline_ms\": "
         << FormatDouble(baseline_runs[1].wall_ms, 3) << ",\n"
         << "    \"shared_ms\": "
         << FormatDouble(shared_runs[1].wall_ms, 3) << ",\n"
         << "    \"baseline_reuse\": " << FormatDouble(reuse_base, 3) << ",\n"
         << "    \"shared_reuse\": " << FormatDouble(reuse_shared, 3) << "\n"
         << "  },\n"
         << "  \"thrash\": {\n"
         << "    \"lru_hot_hit_rate\": "
         << FormatDouble(lru_thrash.hot_hit_rate, 3) << ",\n"
         << "    \"segmented_hot_hit_rate\": "
         << FormatDouble(seg_thrash.hot_hit_rate, 3) << "\n"
         << "  },\n"
         << "  \"correctness_ok\": " << (correctness_ok ? "true" : "false")
         << "\n}\n";
    std::ofstream out(*args.json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path->c_str());
      return 1;
    }
    out << json.str();
  }

  if (!args.check) return correctness_ok ? 0 : 1;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
