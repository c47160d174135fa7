// Throughput-scaling gate for the sharded scatter-gather service layer.
//
// One closed-loop traffic pattern replayed against fleets of 1, 2, 4 and
// 8 hash shards: 8 client threads, each calling
// ShardedDatabase::ExecuteStatement with Zipf-skewed point queries on the
// routing column (plus ~10% routed inserts), with 1 executor worker per
// shard — so the only thing that grows with the fleet is shard-side
// parallelism and the per-shard data share. Every fleet is provisioned
// with the same seeded rows and every client replays the same per-client
// seeded stream, so configs differ only in shard count.
//
// The streams run in kRounds interleaved rounds: round r replays each
// client's next kOpsPerClient / kRounds operations on the 1-, 2-, 4- and
// 8-shard fleets back to back. Neighbouring configs therefore see the
// same machine load and the same stretch of the stream, and a burst of
// foreign load taxes only the rounds it overlaps.
//
// Reported per config: aggregate QPS over all rounds, mean and p99
// client-observed latency, and the fleet routing counters. Gates with
// --check, on the median over rounds of the per-round QPS ratio:
//
//   median_r qps_r(2 shards) / qps_r(1 shard)  > 1.05
//   median_r qps_r(4 shards) / qps_r(2 shards) > 1.05
//
// A routed point query scans only its home shard (rows/N pages), so the
// per-query work — not just the parallelism — shrinks with the fleet. 8
// shards is reported but not gated (runners may have fewer cores than
// shards).
//
// --json=PATH emits the numbers for CI artifacts (BENCH_shard_scaling.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/csv_writer.h"
#include "common/rng.h"
#include "shard/sharded_database.h"
#include "workload/zipf.h"

namespace aib {
namespace {

constexpr size_t kClients = 8;
constexpr size_t kOpsPerClient = 150;
constexpr size_t kRounds = 10;
constexpr double kInsertFraction = 0.1;
constexpr Value kDomainLo = 1;
constexpr Value kDomainHi = 5000;
constexpr double kKeyZipfTheta = 0.8;
constexpr size_t kShardCounts[] = {1, 2, 4, 8};

/// One provisioned fleet and what its rounds measured.
struct Fleet {
  size_t shards = 0;
  std::unique_ptr<ShardedDatabase> db;
  double wall_s = 0;
  std::vector<double> round_qps;
  std::vector<double> latencies_ms;
  size_t failures = 0;
};

Fleet Provision(const bench::BenchArgs& args, size_t num_shards,
                size_t rows) {
  ShardedDatabaseOptions options;
  options.router.num_shards = num_shards;
  options.router.policy = ShardingPolicy::kHash;
  options.router.routing_column = 0;
  options.shard.db.max_tuples_per_page = 32;
  // One executor worker per shard: fleet-side parallelism comes only from
  // the shard count, which is the variable under test.
  options.shard.service.num_workers = 1;
  Fleet fleet;
  fleet.shards = num_shards;
  fleet.db = std::make_unique<ShardedDatabase>(Schema::PaperSchema(2, 16),
                                               options);

  Rng load_rng(args.seed);
  for (size_t i = 0; i < rows; ++i) {
    const Value a = static_cast<Value>(load_rng.UniformInt(kDomainLo, kDomainHi));
    const Value b = static_cast<Value>(load_rng.UniformInt(kDomainLo, kDomainHi));
    Result<GlobalRid> rid = fleet.db->LoadTuple(Tuple({a, b}, {"row"}));
    if (!rid.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   rid.status().ToString().c_str());
      std::exit(2);
    }
  }
  return fleet;
}

/// Every client's seeded statement stream, identical for all fleets.
std::vector<std::vector<ShardStatement>> ClientStreams(
    const bench::BenchArgs& args) {
  const ZipfGenerator zipf(static_cast<size_t>(kDomainHi - kDomainLo + 1),
                           kKeyZipfTheta);
  std::vector<std::vector<ShardStatement>> streams(kClients);
  for (uint64_t t = 0; t < kClients; ++t) {
    Rng rng(args.seed * 1000 + t + 1);
    streams[t].reserve(kOpsPerClient);
    for (size_t i = 0; i < kOpsPerClient; ++i) {
      if (rng.UniformDouble() < kInsertFraction) {
        const Value a =
            static_cast<Value>(rng.UniformInt(kDomainLo, kDomainHi));
        const Value b =
            static_cast<Value>(rng.UniformInt(kDomainLo, kDomainHi));
        streams[t].push_back(ShardStatement::Insert(Tuple({a, b}, {"row"})));
      } else {
        // Zipf rank 1 = hottest key; routed point query on column 0.
        const Value key = kDomainLo + static_cast<Value>(zipf.Sample(rng)) - 1;
        streams[t].push_back(ShardStatement::Select(Query::Point(0, key)));
      }
    }
  }
  return streams;
}

/// Replays statements [begin, end) of every client's stream on `fleet`,
/// one closed-loop thread per client, and records the round's QPS.
void RunRound(const std::vector<std::vector<ShardStatement>>& streams,
              size_t begin, size_t end, Fleet* fleet) {
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<size_t> failures(kClients, 0);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = begin; i < end; ++i) {
        const auto start = std::chrono::steady_clock::now();
        Result<ShardResult> result = fleet->db->ExecuteStatement(streams[t][i]);
        const auto stop = std::chrono::steady_clock::now();
        if (!result.ok()) {
          ++failures[t];
          continue;
        }
        latencies[t].push_back(
            std::chrono::duration<double, std::milli>(stop - start).count());
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  size_t completed = 0;
  for (size_t t = 0; t < kClients; ++t) {
    completed += latencies[t].size();
    fleet->latencies_ms.insert(fleet->latencies_ms.end(),
                               latencies[t].begin(), latencies[t].end());
    fleet->failures += failures[t];
  }
  fleet->wall_s += wall_s;
  fleet->round_qps.push_back(static_cast<double>(completed) /
                             std::max(wall_s, 1e-9));
}

/// Median over rounds of qps_r(num) / qps_r(den).
double MedianRoundRatio(const Fleet& num, const Fleet& den) {
  std::vector<double> ratios;
  for (size_t r = 0; r < num.round_qps.size(); ++r) {
    ratios.push_back(num.round_qps[r] / std::max(den.round_qps[r], 1e-9));
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  return ratios.size() % 2 == 1 ? ratios[mid]
                                : (ratios[mid - 1] + ratios[mid]) / 2;
}

int Run(const bench::BenchArgs& args) {
  const size_t rows = std::max<size_t>(args.num_tuples / 5, 1000);
  std::cout << "Shard-scaling bench — " << rows << " rows, " << kClients
            << " clients x " << kOpsPerClient << " ops in " << kRounds
            << " interleaved rounds, Zipf theta=" << kKeyZipfTheta
            << ", seed=" << args.seed << "\n\n";

  std::vector<Fleet> fleets;
  for (const size_t n : kShardCounts) fleets.push_back(Provision(args, n, rows));
  const std::vector<std::vector<ShardStatement>> streams = ClientStreams(args);
  const size_t per_round = kOpsPerClient / kRounds;
  for (size_t r = 0; r < kRounds; ++r) {
    // Alternate the config order so a load trend does not always favour
    // the same neighbour.
    for (size_t i = 0; i < fleets.size(); ++i) {
      Fleet& fleet = fleets[r % 2 == 0 ? i : fleets.size() - 1 - i];
      RunRound(streams, r * per_round, (r + 1) * per_round, &fleet);
    }
  }

  bool clean = true;
  std::vector<double> qps(fleets.size());
  std::vector<double> mean_ms(fleets.size());
  std::vector<double> p99_ms(fleets.size());
  std::vector<int64_t> legs(fleets.size());
  std::vector<int64_t> routed(fleets.size());
  for (size_t i = 0; i < fleets.size(); ++i) {
    Fleet& f = fleets[i];
    std::vector<double>& all = f.latencies_ms;
    std::sort(all.begin(), all.end());
    qps[i] = static_cast<double>(all.size()) / std::max(f.wall_s, 1e-9);
    double sum = 0;
    for (const double ms : all) sum += ms;
    mean_ms[i] = all.empty() ? 0 : sum / static_cast<double>(all.size());
    p99_ms[i] = all.empty() ? 0
                            : all[std::min(all.size() - 1,
                                           (all.size() * 99) / 100)];
    const std::map<std::string, int64_t> counters = f.db->FleetCounters();
    auto counter = [&](const char* name) {
      auto it = counters.find(name);
      return it == counters.end() ? int64_t{0} : it->second;
    };
    legs[i] = counter(kMetricShardLegsDispatched);
    routed[i] = counter(kMetricShardStatementsRouted);
    std::printf(
        "%zu shard%s  qps %8.0f  mean %7.3f ms  p99 %7.3f ms  "
        "routed %lld  legs %lld  failures %zu\n",
        f.shards, f.shards == 1 ? " " : "s", qps[i], mean_ms[i], p99_ms[i],
        static_cast<long long>(routed[i]), static_cast<long long>(legs[i]),
        f.failures);
    if (f.failures != 0) {
      std::cout << f.shards << " shards: " << f.failures
                << " client ops failed\n";
      clean = false;
    }
  }

  const double ratio_2 = MedianRoundRatio(fleets[1], fleets[0]);
  const double ratio_4 = MedianRoundRatio(fleets[2], fleets[1]);
  const bool scale_2 = ratio_2 > 1.05;
  const bool scale_4 = ratio_4 > 1.05;
  std::cout << "\nscaling gate: median round qps(2)/qps(1) "
            << FormatDouble(ratio_2, 2) << " > 1.05: "
            << (scale_2 ? "OK" : "FAIL") << "\n"
            << "scaling gate: median round qps(4)/qps(2) "
            << FormatDouble(ratio_4, 2) << " > 1.05: "
            << (scale_4 ? "OK" : "FAIL") << "\n";

  if (args.json_path.has_value()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"shard_scaling\",\n"
         << "  \"scale\": \"" << args.scale << "\",\n"
         << "  \"rows\": " << rows << ",\n"
         << "  \"clients\": " << kClients << ",\n"
         << "  \"ops_per_client\": " << kOpsPerClient << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"configs\": [\n";
    for (size_t i = 0; i < fleets.size(); ++i) {
      json << "    {\"shards\": " << fleets[i].shards << ", \"qps\": "
           << FormatDouble(qps[i], 1)
           << ", \"mean_ms\": " << FormatDouble(mean_ms[i], 3)
           << ", \"p99_ms\": " << FormatDouble(p99_ms[i], 3)
           << ", \"statements_routed\": " << routed[i]
           << ", \"legs_dispatched\": " << legs[i]
           << ", \"failures\": " << fleets[i].failures << "}"
           << (i + 1 < fleets.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"median_round_ratio_2_1\": " << FormatDouble(ratio_2, 3)
         << ",\n"
         << "  \"median_round_ratio_4_2\": " << FormatDouble(ratio_4, 3)
         << ",\n"
         << "  \"scaling_2_ok\": " << (scale_2 ? "true" : "false") << ",\n"
         << "  \"scaling_4_ok\": " << (scale_4 ? "true" : "false") << ",\n"
         << "  \"clean\": " << (clean ? "true" : "false") << "\n}\n";
    std::ofstream out(*args.json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path->c_str());
      return 1;
    }
    out << json.str();
  }

  if (!args.check) return clean ? 0 : 1;
  return (clean && scale_2 && scale_4) ? 0 : 1;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
