// Tentpole perf gate of the two-tier Index Buffer Space: demote/promote
// (EvictionMode::kDemote, the default) against the paper's drop/rebuild
// (EvictionMode::kDrop) on a cyclic re-access workload under hot-budget
// pressure.
//
// Setup: two 10%-covered columns whose Index Buffers compete for an entry
// budget L that holds roughly ONE column's uncovered entries. The workload
// probes the columns in alternating phases (the paper's multi-buffer
// competition, Exp. 8): each phase's indexing scans displace the idle
// column's partitions, and the phase switch re-accesses everything that
// was just displaced. A trickle of inserts keeps a few pages uncovered so
// re-access still runs indexing scans, and a trickle of deletes frees hot
// entries (Table I) so PromoteForQuery has the slack to pull cold runs
// back instead of only answering from them.
//
// Under kDrop every displaced partition resets its pages' counters, so
// the first probe after a phase switch re-scans and re-indexes the whole
// column — the drop/rebuild thrash the 2-Tree refactor removes. Under
// kDemote the victims stay probe-able as cold runs (coverage and C[p]
// remain valid): the switch probe skips those pages, answers from the
// cold tier, and promotes runs back at memcpy cost.
//
// The paper-facing number is pages scanned over the measured window (plus
// wall p99); thrash shows up as drop-mode scans re-reading the same pages
// every cycle.
//
// Gates with --check:
//   1. correctness (always): sorted rids identical between the two modes
//      for every probe of the sequence.
//   2. pages: drop-mode pages_scanned >= 5x demote-mode pages_scanned over
//      the measured window — i.e. re-access after demotion fetches >= 5x
//      fewer pages than after a drop.
//   3. the demote leg actually exercised the machinery: > 0 demotions and
//      > 0 promotions over the whole run (the first displacement wave
//      lands during warmup), > 0 cold hits in the measured window, and 0
//      partition drops.
//
// --json=PATH emits the numbers for CI artifacts
// (BENCH_eviction_thrash.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/csv_writer.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "workload/database.h"

namespace aib {
namespace {

constexpr Value kValueMin = 1;
constexpr Value kValueMax = 50000;
constexpr Value kCoveredHi = 5000;  // 10% partial-index coverage per column
constexpr size_t kPhaseProbes = 40;
constexpr size_t kWarmupProbes = 2 * kPhaseProbes;   // one full A/B cycle
constexpr size_t kMeasuredProbes = 6 * kPhaseProbes;  // three cycles
constexpr size_t kInsertEvery = 16;
constexpr size_t kDeletesPerOp = 4;
constexpr size_t kTuplesPerPage = 20;

/// One deterministic workload step, identical across modes: an optional
/// trickle insert (keeps a few pages uncovered so phase-switch re-access
/// runs an indexing scan instead of answering purely from coverage), a
/// handful of deletes (Table I frees the victims' hot entries, giving
/// PromoteForQuery slack to pull cold runs back), then a probe.
struct Op {
  bool insert = false;
  Tuple tuple{{0, 0}, {"pay"}};
  std::vector<Rid> deletes;
  Query query = Query::Point(0, 0);
};

struct ModeResult {
  double wall_ms = 0;  // measured window total
  double p99_us = 0;   // per-probe latency
  size_t pages_scanned = 0;
  size_t pages_skipped = 0;
  // Tier machinery over the whole run (the warmup cycle is where the
  // first displacement wave lands) and cold hits over the measured window.
  int64_t demoted = 0;
  int64_t promoted = 0;
  int64_t cold_hits = 0;
  int64_t partitions_dropped = 0;
  std::vector<std::vector<Rid>> sorted_rids;  // per probe, whole sequence
};

/// Two competing 10%-covered columns over a hot budget sized to one
/// column: every phase's indexing scans must displace the idle column, so
/// the eviction mode decides whether the phase switch thrashes.
std::unique_ptr<Database> MakeWorld(const bench::BenchArgs& args,
                                    EvictionMode mode) {
  DatabaseOptions options;
  options.max_tuples_per_page = kTuplesPerPage;
  options.space.eviction_mode = mode;
  options.space.max_entries = args.num_tuples;  // ~ one column's 90%
  // Small partitions keep cold runs ~180 entries, so the slack the delete
  // trickle frees is enough for PromoteForQuery to pull whole runs back.
  options.buffer.partition_pages = 10;
  auto db = std::make_unique<Database>(Schema::PaperSchema(2, 16), options);
  Rng rng(args.seed);
  for (size_t i = 0; i < args.num_tuples; ++i) {
    db->LoadTuple(
          Tuple({static_cast<Value>(rng.UniformInt(kValueMin, kValueMax)),
                 static_cast<Value>(rng.UniformInt(kValueMin, kValueMax))},
                {"pay"}))
        .value();
  }
  for (ColumnId column = 0; column < 2; ++column) {
    if (!db->CreatePartialIndex(column,
                                ValueCoverage::Range(kValueMin, kCoveredHi))
             .ok()) {
      std::fprintf(stderr, "partial index creation failed\n");
      std::exit(1);
    }
  }
  return db;
}

/// The cyclic phase workload, identical across modes: kPhaseProbes
/// uncovered-domain probes per column before switching (a small range
/// every 8th probe gives PromoteForQuery a real key window), plus the
/// insert and delete trickles. Deletes target distinct loaded tuples
/// (rid = index / page-capacity, index % page-capacity is the slot).
std::vector<Op> MakeOps(const bench::BenchArgs& args) {
  std::vector<Op> ops;
  ops.reserve(kWarmupProbes + kMeasuredProbes);
  Rng rng(args.seed + 1);
  std::vector<bool> deleted(args.num_tuples, false);
  for (size_t i = 0; i < kWarmupProbes + kMeasuredProbes; ++i) {
    Op op;
    const ColumnId column = static_cast<ColumnId>((i / kPhaseProbes) % 2);
    const Value v = static_cast<Value>(
        rng.UniformInt(kCoveredHi + 1, kValueMax - 100));
    op.query = i % 8 == 7 ? Query::Range(column, v, v + 100)
                          : Query::Point(column, v);
    if (i % kInsertEvery == kInsertEvery - 1) {
      op.insert = true;
      op.tuple = Tuple({static_cast<Value>(
                            rng.UniformInt(kCoveredHi + 1, kValueMax)),
                        static_cast<Value>(
                            rng.UniformInt(kCoveredHi + 1, kValueMax))},
                       {"pay"});
    }
    for (size_t d = 0; d < kDeletesPerOp; ++d) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(args.num_tuples) - 1));
      while (deleted[victim]) victim = (victim + 1) % args.num_tuples;
      deleted[victim] = true;
      op.deletes.push_back(Rid{static_cast<PageId>(victim / kTuplesPerPage),
                               static_cast<SlotId>(victim % kTuplesPerPage)});
    }
    ops.push_back(op);
  }
  return ops;
}

ModeResult RunMode(const bench::BenchArgs& args, EvictionMode mode,
                   const std::vector<Op>& ops) {
  std::unique_ptr<Database> db = MakeWorld(args, mode);
  ModeResult result;
  result.sorted_rids.reserve(ops.size());

  std::vector<double> latencies_us;
  latencies_us.reserve(kMeasuredProbes);
  int64_t cold_hits0 = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == kWarmupProbes) {
      cold_hits0 = db->metrics().Get(kMetricColdHits);
    }
    if (ops[i].insert &&
        !db->ExecuteStatement(Statement::Insert(ops[i].tuple)).ok()) {
      std::fprintf(stderr, "insert %zu failed\n", i);
      std::exit(1);
    }
    for (const Rid& rid : ops[i].deletes) {
      if (!db->ExecuteStatement(Statement::Delete(rid)).ok()) {
        std::fprintf(stderr, "delete %zu failed\n", i);
        std::exit(1);
      }
    }
    const auto start = std::chrono::steady_clock::now();
    Result<StatementResult> r =
        db->ExecuteStatement(Statement::Select(ops[i].query));
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (!r.ok()) {
      std::fprintf(stderr, "probe %zu failed: %s\n", i,
                   r.status().ToString().c_str());
      std::exit(1);
    }
    std::vector<Rid> rids = r->rids;
    std::sort(rids.begin(), rids.end());
    result.sorted_rids.push_back(std::move(rids));
    if (i >= kWarmupProbes) {
      latencies_us.push_back(us);
      result.wall_ms += us / 1000.0;
      result.pages_scanned += r->stats.pages_scanned;
      result.pages_skipped += r->stats.pages_skipped;
    }
  }
  result.demoted = db->metrics().Get(kMetricColdPartitionsDemoted);
  result.promoted = db->metrics().Get(kMetricColdPartitionsPromoted);
  result.cold_hits = db->metrics().Get(kMetricColdHits) - cold_hits0;
  result.partitions_dropped = db->metrics().Get(kMetricIbPartitionsDropped);

  std::sort(latencies_us.begin(), latencies_us.end());
  result.p99_us =
      latencies_us[static_cast<size_t>(0.99 * (latencies_us.size() - 1))];
  return result;
}

int Run(const bench::BenchArgs& args) {
  const std::vector<Op> ops = MakeOps(args);
  const ModeResult demote = RunMode(args, EvictionMode::kDemote, ops);
  const ModeResult drop = RunMode(args, EvictionMode::kDrop, ops);

  bool rids_match = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (demote.sorted_rids[i] != drop.sorted_rids[i]) {
      rids_match = false;
      std::fprintf(stderr, "rid mismatch at probe %zu\n", i);
      break;
    }
  }
  const double page_ratio =
      static_cast<double>(drop.pages_scanned) /
      std::max<double>(1.0, static_cast<double>(demote.pages_scanned));
  const bool pages_ok = page_ratio >= 5.0;
  const bool machinery_ok = demote.demoted > 0 && demote.promoted > 0 &&
                            demote.cold_hits > 0 &&
                            demote.partitions_dropped == 0;

  std::printf(
      "eviction thrash (%zu tuples x 2 columns, L = one column, "
      "%zu-probe phases, %zu measured probes)\n",
      args.num_tuples, kPhaseProbes, kMeasuredProbes);
  std::printf("  %-8s %12s %12s %10s %10s %9s %9s %9s\n", "mode", "pages_scan",
              "pages_skip", "wall_ms", "p99_us", "demoted", "promoted",
              "dropped");
  for (const auto& [name, r] :
       {std::pair<const char*, const ModeResult&>{"demote", demote},
        std::pair<const char*, const ModeResult&>{"drop", drop}}) {
    std::printf("  %-8s %12zu %12zu %10s %10s %9lld %9lld %9lld\n", name,
                r.pages_scanned, r.pages_skipped,
                FormatDouble(r.wall_ms, 2).c_str(),
                FormatDouble(r.p99_us, 1).c_str(),
                static_cast<long long>(r.demoted),
                static_cast<long long>(r.promoted),
                static_cast<long long>(r.partitions_dropped));
  }
  std::printf("  drop/demote page ratio: %s (gate >= 5.0): %s\n",
              FormatDouble(page_ratio, 1).c_str(), pages_ok ? "ok" : "FAIL");
  std::printf("  rids identical across modes: %s\n",
              rids_match ? "ok" : "FAIL");
  std::printf("  demote machinery exercised: %s\n",
              machinery_ok ? "ok" : "FAIL");

  if (args.json_path.has_value()) {
    std::ostringstream json;
    auto mode_json = [&](const char* name, const ModeResult& r) {
      json << "  \"" << name << "\": {\"pages_scanned\": " << r.pages_scanned
           << ", \"pages_skipped\": " << r.pages_skipped
           << ", \"wall_ms\": " << FormatDouble(r.wall_ms, 3)
           << ", \"p99_us\": " << FormatDouble(r.p99_us, 1)
           << ", \"partitions_demoted\": " << r.demoted
           << ", \"partitions_promoted\": " << r.promoted
           << ", \"cold_hits\": " << r.cold_hits
           << ", \"partitions_dropped\": " << r.partitions_dropped << "}";
    };
    json << "{\n"
         << "  \"bench\": \"eviction_thrash\",\n"
         << "  \"scale\": \"" << args.scale << "\",\n"
         << "  \"tuples\": " << args.num_tuples << ",\n"
         << "  \"measured_probes\": " << kMeasuredProbes << ",\n";
    mode_json("demote", demote);
    json << ",\n";
    mode_json("drop", drop);
    json << ",\n"
         << "  \"page_ratio\": " << FormatDouble(page_ratio, 2) << ",\n"
         << "  \"pages_ok\": " << (pages_ok ? "true" : "false") << ",\n"
         << "  \"rids_match\": " << (rids_match ? "true" : "false") << ",\n"
         << "  \"machinery_ok\": " << (machinery_ok ? "true" : "false")
         << "\n}\n";
    std::ofstream out(*args.json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path->c_str());
      return 1;
    }
    out << json.str();
  }

  if (args.check && !(rids_match && pages_ok && machinery_ok)) return 1;
  return 0;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
