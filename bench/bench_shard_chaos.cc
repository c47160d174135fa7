// Outage-sweep gate for fleet fault tolerance (BENCH_shard_chaos.json).
//
// One 4-shard hash fleet per phase, seeded rows, closed-loop single-client
// traffic (deterministic on small CI runners):
//
//   healthy   — point queries on keys owned by the three "survivor"
//               shards: the baseline QPS.
//   crashed   — shard 3 crashed and its breaker driven open on a second,
//               identically loaded fleet; the same survivor-key sequence
//               replayed. Healthy-pruned routing means the outage must not
//               tax these statements. The two fleets replay the sequence
//               in kRounds interleaved rounds (alternating which goes
//               first), so machine load taxes both sides of a round alike:
//               gate median_r qps_r(crashed) / qps_r(healthy) >= 0.8.
//   fail-fast — statements routed at the crashed shard after the breaker
//               opened. Fail-fast means no retry ladder and no sleeps:
//               gate p99 <= 20 ms (a refusal is a memory read, not a
//               dispatch).
//   hedged    — fresh fleet with a zero hedge delay: every scatter leg is
//               a hedge candidate, exercising duplicate dispatch end to
//               end. Gate: legs_hedged > 0 and results identical to the
//               unhedged baseline.
//   restart   — RestartShard on the crashed shard, then a probe query set
//               compared against a never-crashed twin fleet: gate
//               bit-identical rid vectors (placement is durable; the
//               Index Buffers re-adapt from cold without changing
//               results).
//   replay    — the same seeded brownout script driven over two fresh
//               fleets: gate equal ShardFaultInjector::TraceHash() (every
//               fault/latency draw is replayable).
//
// --json=PATH emits the numbers and gate verdicts; --check exits nonzero
// when any gate fails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/csv_writer.h"
#include "common/rng.h"
#include "shard/sharded_database.h"

namespace aib {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kCrashShard = 3;
constexpr Value kDomainLo = 1;
constexpr Value kDomainHi = 5000;
constexpr size_t kOpsPerPhase = 400;
/// Interleaved healthy/crashed rounds; each replays all kOpsPerPhase keys.
constexpr size_t kRounds = 10;
constexpr size_t kFailFastOps = 200;
constexpr size_t kScatterOps = 40;

ShardedDatabaseOptions FleetOptions(const bench::BenchArgs& args) {
  ShardedDatabaseOptions options;
  options.router.num_shards = kShards;
  options.router.policy = ShardingPolicy::kHash;
  options.router.routing_column = 0;
  options.shard.db.max_tuples_per_page = 32;
  options.shard.service.num_workers = 1;
  options.tolerance.seed = args.seed;
  // Keep the breaker open for the whole fail-fast phase: the first probe
  // is not due for 10s, far beyond the measured window.
  options.tolerance.breaker.probe_backoff.base =
      std::chrono::microseconds{10000000};
  return options;
}

std::unique_ptr<ShardedDatabase> MakeFleet(const bench::BenchArgs& args,
                                           ShardedDatabaseOptions options) {
  auto fleet = std::make_unique<ShardedDatabase>(Schema::PaperSchema(2, 16),
                                                 std::move(options));
  const size_t rows = std::max<size_t>(args.num_tuples / 5, 1000);
  Rng load_rng(args.seed);
  for (size_t i = 0; i < rows; ++i) {
    const Value a =
        static_cast<Value>(load_rng.UniformInt(kDomainLo, kDomainHi));
    const Value b =
        static_cast<Value>(load_rng.UniformInt(kDomainLo, kDomainHi));
    Result<GlobalRid> rid = fleet->LoadTuple(Tuple({a, b}, {"row"}));
    if (!rid.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   rid.status().ToString().c_str());
      std::exit(2);
    }
  }
  return fleet;
}

/// The replayed survivor-key sequence: seeded keys owned by any shard but
/// the crash target, identical across phases.
std::vector<Value> SurvivorKeys(const ShardedDatabase& fleet, uint64_t seed) {
  std::vector<Value> keys;
  keys.reserve(kOpsPerPhase);
  Rng rng(seed * 77 + 5);
  while (keys.size() < kOpsPerPhase) {
    const Value v = static_cast<Value>(rng.UniformInt(kDomainLo, kDomainHi));
    if (fleet.router().ShardForValue(v) != kCrashShard) keys.push_back(v);
  }
  return keys;
}

Value VictimKey(const ShardedDatabase& fleet) {
  for (Value v = kDomainLo; v <= kDomainHi; ++v) {
    if (fleet.router().ShardForValue(v) == kCrashShard) return v;
  }
  std::fprintf(stderr, "no key routes to shard %zu\n", kCrashShard);
  std::exit(2);
}

/// Latencies, wall time and failures of one or more replays.
struct PhaseStats {
  std::vector<double> latencies_ms;
  double wall_s = 0;
  size_t failures = 0;

  double qps() const {
    return static_cast<double>(latencies_ms.size()) / std::max(wall_s, 1e-9);
  }
  double p99_ms() const {
    if (latencies_ms.empty()) return 0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    return sorted[std::min(sorted.size() - 1, (sorted.size() * 99) / 100)];
  }
};

/// Closed-loop replay of one point query per key, added to `stats`;
/// failures counted, not fatal (the fail-fast phase *expects* them).
/// Returns this replay's QPS.
double ReplayPoints(ShardedDatabase* fleet, const std::vector<Value>& keys,
                    PhaseStats* stats) {
  const auto wall_start = std::chrono::steady_clock::now();
  for (const Value key : keys) {
    const auto start = std::chrono::steady_clock::now();
    Result<ShardResult> result =
        fleet->ExecuteStatement(ShardStatement::Select(Query::Point(0, key)));
    const auto end = std::chrono::steady_clock::now();
    if (!result.ok()) ++stats->failures;
    stats->latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  stats->wall_s += wall_s;
  return static_cast<double>(keys.size()) / std::max(wall_s, 1e-9);
}

/// Opens the crash shard's breaker: crash it, then feed routed failures
/// until the trip.
void CrashAndOpenBreaker(ShardedDatabase* fleet) {
  fleet->fault_injector().Crash(kCrashShard);
  const Value victim = VictimKey(*fleet);
  for (int i = 0;
       i < 8 && fleet->health().state(kCrashShard) != BreakerState::kOpen;
       ++i) {
    (void)fleet->ExecuteStatement(
        ShardStatement::Select(Query::Point(0, victim)));
  }
  if (fleet->health().state(kCrashShard) != BreakerState::kOpen) {
    std::fprintf(stderr, "breaker failed to open\n");
    std::exit(2);
  }
}

uint64_t BrownoutScriptHash(const bench::BenchArgs& args) {
  // A breaker that never trips, so every scripted statement reaches the
  // injector and extends the decision trace.
  ShardedDatabaseOptions options = FleetOptions(args);
  options.tolerance.breaker.consecutive_failures = 1000000;
  options.tolerance.breaker.error_threshold = 1.1;
  auto fleet = MakeFleet(args, options);
  BrownoutOptions brownout;
  brownout.error_rate = 0.3;
  brownout.latency_rate = 0.1;
  brownout.latency = std::chrono::microseconds{200};
  fleet->fault_injector().Brownout(1, brownout);
  for (size_t i = 0; i < kScatterOps; ++i) {
    (void)fleet->ExecuteStatement(
        ShardStatement::Select(Query::Range(1, kDomainLo, kDomainHi)));
  }
  return fleet->fault_injector().TraceHash();
}

int Run(const bench::BenchArgs& args) {
  const size_t rows = std::max<size_t>(args.num_tuples / 5, 1000);
  std::cout << "Shard-chaos bench — " << rows << " rows, " << kShards
            << " hash shards, " << kOpsPerPhase
            << " survivor ops/phase, seed=" << args.seed << "\n\n";

  // --- healthy vs crashed QPS on survivor keys ------------------------------
  // `fleet` is the one crashed here (and restarted below); `healthy_fleet`
  // holds the same seeded rows and never crashes.
  auto fleet = MakeFleet(args, FleetOptions(args));
  auto healthy_fleet = MakeFleet(args, FleetOptions(args));
  const std::vector<Value> keys = SurvivorKeys(*fleet, args.seed);
  // Warmup pass so every measured round runs against adapted buffers.
  PhaseStats warmup;
  (void)ReplayPoints(fleet.get(), keys, &warmup);
  (void)ReplayPoints(healthy_fleet.get(), keys, &warmup);
  CrashAndOpenBreaker(fleet.get());
  PhaseStats healthy;
  PhaseStats crashed;
  std::vector<double> round_ratios;
  for (size_t r = 0; r < kRounds; ++r) {
    double healthy_qps;
    double crashed_qps;
    if (r % 2 == 0) {
      healthy_qps = ReplayPoints(healthy_fleet.get(), keys, &healthy);
      crashed_qps = ReplayPoints(fleet.get(), keys, &crashed);
    } else {
      crashed_qps = ReplayPoints(fleet.get(), keys, &crashed);
      healthy_qps = ReplayPoints(healthy_fleet.get(), keys, &healthy);
    }
    round_ratios.push_back(crashed_qps / std::max(healthy_qps, 1e-9));
  }
  std::sort(round_ratios.begin(), round_ratios.end());
  const double median_ratio =
      (round_ratios[(kRounds - 1) / 2] + round_ratios[kRounds / 2]) / 2;
  std::printf("healthy   qps %8.0f  p99 %7.3f ms  failures %zu\n",
              healthy.qps(), healthy.p99_ms(), healthy.failures);
  std::printf("crashed   qps %8.0f  p99 %7.3f ms  failures %zu  (1/%zu shards down)\n",
              crashed.qps(), crashed.p99_ms(), crashed.failures, kShards);
  std::printf("rounds    %zu interleaved, crashed/healthy qps ratio "
              "min %.2f median %.2f max %.2f\n",
              kRounds, round_ratios.front(), median_ratio,
              round_ratios.back());

  // --- fail-fast p99 on the dead shard --------------------------------------
  const std::vector<Value> doomed(kFailFastOps, VictimKey(*fleet));
  PhaseStats fail_fast;
  (void)ReplayPoints(fleet.get(), doomed, &fail_fast);
  std::printf("fail-fast qps %8.0f  p99 %7.3f ms  failures %zu/%zu\n",
              fail_fast.qps(), fail_fast.p99_ms(), fail_fast.failures,
              kFailFastOps);

  // --- restart equivalence vs a never-crashed twin --------------------------
  Status restart = fleet->RestartShard(kCrashShard);
  if (!restart.ok()) {
    std::fprintf(stderr, "restart failed: %s\n", restart.ToString().c_str());
    return 1;
  }
  auto twin = MakeFleet(args, FleetOptions(args));
  bool restart_identical = true;
  const Query probes[] = {Query::Range(1, kDomainLo, kDomainHi),
                          Query::Point(0, VictimKey(*fleet)),
                          Query::Range(0, kDomainLo, kDomainLo + 500)};
  for (const Query& probe : probes) {
    Result<ShardResult> mine =
        fleet->ExecuteStatement(ShardStatement::Select(probe));
    Result<ShardResult> theirs =
        twin->ExecuteStatement(ShardStatement::Select(probe));
    if (!mine.ok() || !theirs.ok() || mine->rids != theirs->rids) {
      restart_identical = false;
    }
  }
  std::printf("restart   equivalence vs never-crashed twin: %s\n",
              restart_identical ? "bit-identical" : "MISMATCH");

  // --- hedged scatter phase -------------------------------------------------
  ShardedDatabaseOptions hedge_options = FleetOptions(args);
  hedge_options.tolerance.breaker.hedge_default = std::chrono::microseconds{0};
  hedge_options.tolerance.breaker.hedge_floor = std::chrono::microseconds{0};
  auto hedge_fleet = MakeFleet(args, hedge_options);
  Result<ShardResult> unhedged_baseline =
      twin->ExecuteStatement(
          ShardStatement::Select(Query::Range(1, kDomainLo, kDomainHi)));
  size_t hedges = 0;
  size_t hedge_wins = 0;
  bool hedged_results_ok = true;
  for (size_t i = 0; i < kScatterOps; ++i) {
    Result<ShardResult> result =
        hedge_fleet->ExecuteStatement(
            ShardStatement::Select(Query::Range(1, kDomainLo, kDomainHi)));
    if (!result.ok()) {
      hedged_results_ok = false;
      continue;
    }
    hedges += result->legs_hedged;
    hedge_wins += result->hedge_wins;
    if (unhedged_baseline.ok() &&
        result->rids != unhedged_baseline->rids) {
      hedged_results_ok = false;
    }
  }
  std::printf("hedged    %zu duplicate legs over %zu scatters (%zu wins), "
              "results %s\n",
              hedges, kScatterOps, hedge_wins,
              hedged_results_ok ? "identical" : "MISMATCH");

  // --- deterministic replay gate --------------------------------------------
  const uint64_t trace_a = BrownoutScriptHash(args);
  const uint64_t trace_b = BrownoutScriptHash(args);
  std::printf("replay    trace hash %016llx %s %016llx\n",
              static_cast<unsigned long long>(trace_a),
              trace_a == trace_b ? "==" : "!=",
              static_cast<unsigned long long>(trace_b));

  const std::map<std::string, int64_t> counters = fleet->FleetCounters();
  auto counter = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };

  // --- gates ----------------------------------------------------------------
  const bool degrade_ok = median_ratio >= 0.8;
  const bool survivors_clean =
      healthy.failures == 0 && crashed.failures == 0;
  const bool fail_fast_ok =
      fail_fast.p99_ms() <= 20.0 && fail_fast.failures == kFailFastOps;
  const bool hedge_ok = hedges > 0 && hedged_results_ok;
  const bool replay_ok = trace_a == trace_b;
  std::cout << "\ngate: median round qps(crashed)/qps(healthy) "
            << FormatDouble(median_ratio, 2)
            << " >= 0.80: " << (degrade_ok ? "OK" : "FAIL") << "\n"
            << "gate: survivor phases clean: "
            << (survivors_clean ? "OK" : "FAIL") << "\n"
            << "gate: fail-fast p99 " << FormatDouble(fail_fast.p99_ms(), 3)
            << " ms <= 20: " << (fail_fast_ok ? "OK" : "FAIL") << "\n"
            << "gate: restart bit-identical: "
            << (restart_identical ? "OK" : "FAIL") << "\n"
            << "gate: hedges dispatched: " << (hedge_ok ? "OK" : "FAIL")
            << "\n"
            << "gate: trace replay: " << (replay_ok ? "OK" : "FAIL") << "\n";

  if (args.json_path.has_value()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"shard_chaos\",\n"
         << "  \"scale\": \"" << args.scale << "\",\n"
         << "  \"rows\": " << rows << ",\n"
         << "  \"shards\": " << kShards << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"healthy_qps\": " << FormatDouble(healthy.qps(), 1) << ",\n"
         << "  \"crashed_qps\": " << FormatDouble(crashed.qps(), 1) << ",\n"
         << "  \"crashed_over_healthy\": "
         << FormatDouble(crashed.qps() / std::max(healthy.qps(), 1e-9), 3)
         << ",\n"
         << "  \"median_round_ratio\": " << FormatDouble(median_ratio, 3)
         << ",\n"
         << "  \"fail_fast_p99_ms\": " << FormatDouble(fail_fast.p99_ms(), 3)
         << ",\n"
         << "  \"crash_rejects\": " << counter(kMetricShardCrashRejects)
         << ",\n"
         << "  \"breaker_fast_fails\": "
         << counter(kMetricShardBreakerFastFails) << ",\n"
         << "  \"breaker_opened\": " << counter(kMetricShardBreakerOpened)
         << ",\n"
         << "  \"restarts\": " << counter(kMetricShardRestarts) << ",\n"
         << "  \"hedged_legs\": " << hedges << ",\n"
         << "  \"hedge_wins\": " << hedge_wins << ",\n"
         << "  \"trace_hash\": \"" << std::hex << trace_a << std::dec
         << "\",\n"
         << "  \"degrade_ok\": " << (degrade_ok ? "true" : "false") << ",\n"
         << "  \"survivors_clean\": " << (survivors_clean ? "true" : "false")
         << ",\n"
         << "  \"fail_fast_ok\": " << (fail_fast_ok ? "true" : "false")
         << ",\n"
         << "  \"restart_identical\": "
         << (restart_identical ? "true" : "false") << ",\n"
         << "  \"hedge_ok\": " << (hedge_ok ? "true" : "false") << ",\n"
         << "  \"replay_ok\": " << (replay_ok ? "true" : "false") << "\n}\n";
    std::ofstream out(*args.json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path->c_str());
      return 1;
    }
    out << json.str();
  }

  if (!args.check) return 0;
  return (degrade_ok && survivors_clean && fail_fast_ok && restart_identical &&
          hedge_ok && replay_ok)
             ? 0
             : 1;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
