// Throughput-scaling gate for the sharded scatter-gather service layer.
//
// One closed-loop traffic pattern replayed against fleets of 1, 2, 4 and
// 8 hash shards: 8 client threads, each calling
// ShardedDatabase::ExecuteStatement with Zipf-skewed point queries on the
// routing column (plus ~10% routed inserts), with 1 executor worker per
// shard — so the only thing that grows with the fleet is shard-side
// parallelism and the per-shard data share. Every config is freshly
// provisioned with the same seeded rows and every client replays the same
// per-client seeded stream, so configs differ only in shard count.
//
// Reported per config: aggregate QPS, mean and p99 client-observed
// latency, and the fleet routing counters. Gates with --check:
//
//   qps(2 shards) > 1.05 x qps(1 shard)
//   qps(4 shards) > 1.05 x qps(2 shards)
//
// The gate is robust on small CI machines: a routed point query scans
// only its home shard (rows/N pages), so the per-query work — not just
// the parallelism — shrinks with the fleet. 8 shards is reported but not
// gated (runners may have fewer cores than shards).
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
constexpr double kInsertFraction = 0.1;
constexpr Value kDomainLo = 1;
constexpr Value kDomainHi = 5000;
constexpr double kKeyZipfTheta = 0.8;

struct ConfigResult {
  size_t shards = 0;
  double qps = 0;
  double mean_ms = 0;
  double p99_ms = 0;
  int64_t legs_dispatched = 0;
  int64_t statements_routed = 0;
  size_t failures = 0;
};

ConfigResult RunConfig(const bench::BenchArgs& args, size_t num_shards) {
  const size_t rows = std::max<size_t>(args.num_tuples / 5, 1000);

  ShardedDatabaseOptions options;
  options.router.num_shards = num_shards;
  options.router.policy = ShardingPolicy::kHash;
  options.router.routing_column = 0;
  options.shard.db.max_tuples_per_page = 32;
  // One executor worker per shard: fleet-side parallelism comes only from
  // the shard count, which is the variable under test.
  options.shard.service.num_workers = 1;
  ShardedDatabase db(Schema::PaperSchema(2, 16), options);

  Rng load_rng(args.seed);
  for (size_t i = 0; i < rows; ++i) {
    const Value a = static_cast<Value>(load_rng.UniformInt(kDomainLo, kDomainHi));
    const Value b = static_cast<Value>(load_rng.UniformInt(kDomainLo, kDomainHi));
    Result<GlobalRid> rid = db.LoadTuple(Tuple({a, b}, {"row"}));
    if (!rid.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   rid.status().ToString().c_str());
      std::exit(2);
    }
  }

  const ZipfGenerator zipf(static_cast<size_t>(kDomainHi - kDomainLo + 1),
                           kKeyZipfTheta);
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<size_t> failures(kClients, 0);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (uint64_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      // Per-client seeded stream: identical across shard configs.
      Rng rng(args.seed * 1000 + t + 1);
      latencies[t].reserve(kOpsPerClient);
      for (size_t i = 0; i < kOpsPerClient; ++i) {
        ShardStatement statement = ShardStatement::Select(Query::Point(0, 0));
        if (rng.UniformDouble() < kInsertFraction) {
          const Value a =
              static_cast<Value>(rng.UniformInt(kDomainLo, kDomainHi));
          const Value b =
              static_cast<Value>(rng.UniformInt(kDomainLo, kDomainHi));
          statement = ShardStatement::Insert(Tuple({a, b}, {"row"}));
        } else {
          // Zipf rank 1 = hottest key; routed point query on column 0.
          const Value key = kDomainLo + static_cast<Value>(zipf.Sample(rng)) - 1;
          statement = ShardStatement::Select(Query::Point(0, key));
        }
        const auto start = std::chrono::steady_clock::now();
        Result<ShardResult> result = db.ExecuteStatement(statement);
        const auto end = std::chrono::steady_clock::now();
        if (!result.ok()) {
          ++failures[t];
          continue;
        }
        latencies[t].push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const auto wall_end = std::chrono::steady_clock::now();

  ConfigResult config;
  config.shards = num_shards;
  std::vector<double> all;
  for (size_t t = 0; t < kClients; ++t) {
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    config.failures += failures[t];
  }
  std::sort(all.begin(), all.end());
  const double wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  config.qps = static_cast<double>(all.size()) / std::max(wall_s, 1e-9);
  double sum = 0;
  for (const double ms : all) sum += ms;
  config.mean_ms = all.empty() ? 0 : sum / static_cast<double>(all.size());
  config.p99_ms =
      all.empty() ? 0 : all[(all.size() * 99) / 100 == all.size()
                             ? all.size() - 1
                             : (all.size() * 99) / 100];
  const std::map<std::string, int64_t> counters = db.FleetCounters();
  auto counter = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };
  config.legs_dispatched = counter(kMetricShardLegsDispatched);
  config.statements_routed = counter(kMetricShardStatementsRouted);
  return config;
}

int Run(const bench::BenchArgs& args) {
  const size_t rows = std::max<size_t>(args.num_tuples / 5, 1000);
  std::cout << "Shard-scaling bench — " << rows << " rows, " << kClients
            << " clients x " << kOpsPerClient
            << " ops, Zipf theta=" << kKeyZipfTheta << ", seed=" << args.seed
            << "\n\n";

  const size_t shard_counts[] = {1, 2, 4, 8};
  std::vector<ConfigResult> configs;
  for (const size_t n : shard_counts) {
    configs.push_back(RunConfig(args, n));
    const ConfigResult& c = configs.back();
    std::printf(
        "%zu shard%s  qps %8.0f  mean %7.3f ms  p99 %7.3f ms  "
        "routed %lld  legs %lld  failures %zu\n",
        c.shards, c.shards == 1 ? " " : "s", c.qps, c.mean_ms, c.p99_ms,
        static_cast<long long>(c.statements_routed),
        static_cast<long long>(c.legs_dispatched), c.failures);
  }

  bool clean = true;
  for (const ConfigResult& c : configs) {
    if (c.failures != 0) {
      std::cout << c.shards << " shards: " << c.failures
                << " client ops failed\n";
      clean = false;
    }
  }

  const bool scale_2 = configs[1].qps > configs[0].qps * 1.05;
  const bool scale_4 = configs[2].qps > configs[1].qps * 1.05;
  std::cout << "\nscaling gate: qps(2)/qps(1) "
            << FormatDouble(configs[1].qps / std::max(configs[0].qps, 1e-9), 2)
            << " > 1.05: " << (scale_2 ? "OK" : "FAIL") << "\n"
            << "scaling gate: qps(4)/qps(2) "
            << FormatDouble(configs[2].qps / std::max(configs[1].qps, 1e-9), 2)
            << " > 1.05: " << (scale_4 ? "OK" : "FAIL") << "\n";

  if (args.json_path.has_value()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"shard_scaling\",\n"
         << "  \"scale\": \"" << args.scale << "\",\n"
         << "  \"rows\": " << rows << ",\n"
         << "  \"clients\": " << kClients << ",\n"
         << "  \"ops_per_client\": " << kOpsPerClient << ",\n"
         << "  \"configs\": [\n";
    for (size_t i = 0; i < configs.size(); ++i) {
      const ConfigResult& c = configs[i];
      json << "    {\"shards\": " << c.shards << ", \"qps\": "
           << FormatDouble(c.qps, 1)
           << ", \"mean_ms\": " << FormatDouble(c.mean_ms, 3)
           << ", \"p99_ms\": " << FormatDouble(c.p99_ms, 3)
           << ", \"statements_routed\": " << c.statements_routed
           << ", \"legs_dispatched\": " << c.legs_dispatched
           << ", \"failures\": " << c.failures << "}"
           << (i + 1 < configs.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
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
