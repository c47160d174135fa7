// Perf + correctness gate for the mixed read/write statement pipeline.
//
// Three legs over the paper's data setup, each driven through a 1-worker
// QueryService (the deterministic FIFO configuration) by the seeded
// MixedWorkloadGenerator:
//
//   read-only — write_fraction 0.0, the paper's pure point-query mix;
//   mixed-10  — write_fraction 0.1 (inserts/updates/deletes, Zipf victims);
//   mixed-30  — write_fraction 0.3.
//
// Per leg we report the mean read cost (cost-model units, deterministic)
// and mean wall latencies for reads and DML. Gates with --check:
//
//   1. determinism (always): each leg is run twice with the same seed; the
//      full trace (statement kinds, result rids, scan counters, costs) and
//      the final adaptive state (buffer entries, partitions, page counters)
//      must hash bit-identically. A write path that leaks nondeterminism
//      into the adaptive trajectory fails here.
//   2. no-regression: mean read cost under 10% writes must stay within a
//      generous 3x of the read-only mean — DML invalidates buffered pages,
//      so reads pay some re-indexing, but the maintenance path must keep
//      the buffer useful rather than thrashing it.
//
// --json=PATH emits the numbers for CI artifacts (BENCH_mixed_workload.json).
//
// --contention switches to the latch-contention sweep of the
// partition-granular concurrency refactor: 4 reader threads drive covered
// point probes while 0/1/4/8 writer threads run DML in value bands that
// are either disjoint per writer or fully overlapping. Writers stay
// strictly above covered_hi, so every probe's result set is invariant and
// checked exactly (a correctness failure is always fatal). Reported per
// cell: read QPS, writer throughput, and the latch-contention counters
// (waits, optimistic retries/fallbacks). With --check, one lenient
// wall-clock gate: read QPS under 4 disjoint-band writers must hold at
// least 25% of the writer-free baseline — the claim the refactor makes is
// precisely that disjoint-partition writers do not serialize readers.
// --json=PATH emits BENCH_latch_contention.json in this mode.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
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
#include "core/buffer_space.h"
#include "core/index_buffer.h"
#include "service/query_service.h"
#include "workload/database.h"
#include "workload/experiment.h"
#include "workload/workload_gen.h"

namespace aib {
namespace {

constexpr size_t kStatements = 1000;

/// FNV-1a fold of the per-statement trace and the final adaptive state.
struct TraceHash {
  uint64_t state = 1469598103934665603ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state ^= (v >> (i * 8)) & 0xff;
      state *= 1099511628211ull;
    }
  }
};

struct LegResult {
  double mean_read_cost = 0;
  double mean_read_ms = 0;
  double mean_dml_ms = 0;
  size_t reads = 0;
  size_t dml = 0;
  int64_t dml_executed = 0;
  uint64_t trace_hash = 0;
};

LegResult RunLeg(const bench::BenchArgs& args, double write_fraction) {
  PaperSetupOptions setup = bench::PaperSetup(args);
  auto db = BuildPaperDatabase(setup);
  if (!db.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(2);
  }

  QueryServiceOptions service_options;
  service_options.num_workers = 1;  // FIFO: results independent of timing
  service_options.queue_capacity = 64;
  QueryService service((*db)->executor(), service_options);

  MixedWorkloadOptions mixed;
  mixed.num_statements = kStatements;
  mixed.write_fraction = write_fraction;
  mixed.values_per_tuple = static_cast<size_t>(setup.int_columns);
  mixed.write_lo = setup.covered_hi + 1;
  mixed.write_hi = setup.value_max;
  mixed.victim_zipf_theta = 0.5;
  mixed.read_mix = {bench::PaperMix(0), bench::PaperMix(1)};
  MixedWorkloadGenerator generator(mixed, args.seed);

  LegResult leg;
  TraceHash hash;
  double read_ms = 0, dml_ms = 0, read_cost = 0;
  std::vector<Rid> live;  // generator-inserted rows, insertion order
  while (auto op = generator.Next()) {
    const auto start = std::chrono::steady_clock::now();
    if (op->kind == StatementKind::kSelect) {
      Result<StatementResult> result =
          service.ExecuteStatement(Statement::Select(op->query));
      if (!result.ok()) std::abort();
      const auto end = std::chrono::steady_clock::now();
      read_ms +=
          std::chrono::duration<double, std::milli>(end - start).count();
      read_cost += result->stats.cost;
      ++leg.reads;
      hash.Mix(0);
      hash.Mix(result->rids.size());
      for (const Rid& rid : result->rids) {
        hash.Mix((static_cast<uint64_t>(rid.page_id) << 16) | rid.slot);
      }
      hash.Mix(result->stats.pages_scanned);
      hash.Mix(result->stats.pages_skipped);
      hash.Mix(static_cast<uint64_t>(std::llround(result->stats.cost * 1e3)));
    } else {
      const std::string payload(1 + generator.position() % 64, 'w');
      Statement statement = Statement::Delete(Rid{0, 0});
      size_t victim_slot = 0;
      if (op->kind == StatementKind::kInsert) {
        statement = Statement::Insert(Tuple(op->values, {payload}));
      } else {
        victim_slot = live.size() - op->victim_rank;
        if (op->kind == StatementKind::kUpdate) {
          statement = Statement::Update(live[victim_slot],
                                        Tuple(op->values, {payload}));
        } else {
          statement = Statement::Delete(live[victim_slot]);
        }
      }
      Result<StatementResult> result = service.ExecuteStatement(statement);
      if (!result.ok()) std::abort();
      const auto end = std::chrono::steady_clock::now();
      dml_ms +=
          std::chrono::duration<double, std::milli>(end - start).count();
      ++leg.dml;
      if (op->kind == StatementKind::kInsert) {
        live.push_back(result->rids.front());
      } else if (op->kind == StatementKind::kUpdate) {
        live[victim_slot] = result->rids.front();
      } else {
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim_slot));
      }
      hash.Mix(static_cast<uint64_t>(op->kind));
      for (const Rid& rid : result->rids) {
        hash.Mix((static_cast<uint64_t>(rid.page_id) << 16) | rid.slot);
      }
    }
  }
  service.Shutdown();

  // Final adaptive state: any nondeterminism in maintenance or adaptation
  // that the per-statement trace missed lands here.
  for (const auto& [index, buffer] : (*db)->space()->buffers()) {
    hash.Mix(static_cast<uint64_t>(index->column()));
    hash.Mix(index->EntryCount());
    hash.Mix(buffer->TotalEntries());
    hash.Mix(buffer->PartitionCount());
    for (size_t p = 0; p < buffer->counters().size(); ++p) {
      hash.Mix(buffer->counters().Get(p));
    }
  }

  leg.mean_read_cost = leg.reads > 0 ? read_cost / leg.reads : 0;
  leg.mean_read_ms = leg.reads > 0 ? read_ms / leg.reads : 0;
  leg.mean_dml_ms = leg.dml > 0 ? dml_ms / leg.dml : 0;
  leg.dml_executed = (*db)->metrics().Get(kMetricDmlStatements);
  leg.trace_hash = hash.state;
  return leg;
}

// ---------------------------------------------------------------------------
// Latch-contention sweep (--contention)

constexpr int kContentionReaders = 4;
constexpr size_t kContentionReadsPerReader = 2500;
constexpr Value kContentionBandWidth = 2000;

struct ContentionCell {
  const char* bands = "disjoint";
  int writers = 0;
  size_t reads = 0;
  size_t writes = 0;
  double read_qps = 0;
  int64_t latch_waits = 0;
  int64_t optimistic_retries = 0;
  int64_t optimistic_fallbacks = 0;
  bool reads_correct = true;
};

ContentionCell RunContentionCell(const bench::BenchArgs& args, int writers,
                                 bool disjoint) {
  PaperSetupOptions setup = bench::PaperSetup(args);
  auto db = BuildPaperDatabase(setup);
  if (!db.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(2);
  }
  Database& d = **db;

  // Covered probe set, frozen up front: the writers work strictly above
  // covered_hi, so these result sets are invariant for the whole cell and
  // every concurrent probe can be checked exactly.
  constexpr int kProbeValues = 32;
  std::vector<Value> values;
  std::vector<std::vector<Rid>> expected;
  for (int i = 0; i < kProbeValues; ++i) {
    const Value v = 1 + (i * setup.covered_hi) / kProbeValues;
    values.push_back(v);
    std::vector<Rid> rids = d.FindRids(0, v);
    std::sort(rids.begin(), rids.end());
    expected.push_back(std::move(rids));
  }

  ContentionCell cell;
  cell.bands = disjoint ? "disjoint" : "overlapping";
  cell.writers = writers;
  const int64_t waits0 = d.metrics().Get(kMetricLatchWaits);
  const int64_t retries0 = d.metrics().Get(kMetricLatchOptimisticRetries);
  const int64_t fallbacks0 =
      d.metrics().Get(kMetricLatchOptimisticFallbacks);

  std::atomic<bool> stop{false};
  std::atomic<size_t> writes{0};
  std::atomic<bool> correct{true};
  std::vector<std::thread> writer_threads;
  for (int w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      // Each writer mutates only rows it inserted itself; the bands
      // control whether writers collide on the same Index Buffer
      // partitions (overlapping) or not (disjoint).
      const Value band_lo = static_cast<Value>(
          setup.covered_hi + 1 + (disjoint ? w * kContentionBandWidth : 0));
      std::vector<Rid> mine;
      const std::string payload(48, 'w');
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Value v =
            band_lo + static_cast<Value>(i % kContentionBandWidth);
        if (i % 8 == 5 && !mine.empty()) {
          const size_t slot = i % mine.size();
          Result<StatementResult> updated = d.ExecuteStatement(
              Statement::Update(mine[slot], Tuple({v, v, v}, {payload})));
          if (updated.ok()) mine[slot] = updated->rids.front();
        } else if (i % 16 == 12 && !mine.empty()) {
          (void)d.ExecuteStatement(Statement::Delete(mine.back()));
          mine.pop_back();
        } else {
          Result<StatementResult> inserted = d.ExecuteStatement(
              Statement::Insert(Tuple({v, v, v}, {payload})));
          if (inserted.ok()) mine.push_back(inserted->rids.front());
        }
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> reader_threads;
  for (int r = 0; r < kContentionReaders; ++r) {
    reader_threads.emplace_back([&, r] {
      for (size_t i = 0; i < kContentionReadsPerReader; ++i) {
        const size_t pick =
            (i * kContentionReaders + static_cast<size_t>(r)) %
            values.size();
        Result<StatementResult> result = d.ExecuteStatement(
            Statement::Select(Query::Point(0, values[pick])));
        if (!result.ok()) {
          correct.store(false, std::memory_order_relaxed);
          continue;
        }
        std::vector<Rid> rids = result->rids;
        std::sort(rids.begin(), rids.end());
        if (rids != expected[pick]) {
          correct.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : reader_threads) thread.join();
  const auto end = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : writer_threads) thread.join();

  const double seconds = std::chrono::duration<double>(end - start).count();
  cell.reads = kContentionReaders * kContentionReadsPerReader;
  cell.writes = writes.load();
  cell.read_qps = static_cast<double>(cell.reads) / std::max(seconds, 1e-9);
  cell.latch_waits = d.metrics().Get(kMetricLatchWaits) - waits0;
  cell.optimistic_retries =
      d.metrics().Get(kMetricLatchOptimisticRetries) - retries0;
  cell.optimistic_fallbacks =
      d.metrics().Get(kMetricLatchOptimisticFallbacks) - fallbacks0;
  cell.reads_correct = correct.load();
  return cell;
}

int RunContention(const bench::BenchArgs& args) {
  std::cout << "Latch-contention sweep — " << args.num_tuples << " tuples, "
            << kContentionReaders << " readers x "
            << kContentionReadsPerReader
            << " covered probes per cell, writers in bands above "
               "covered_hi\n\n";

  std::vector<ContentionCell> cells;
  cells.push_back(RunContentionCell(args, 0, true));  // baseline
  for (int writers : {1, 4, 8}) {
    for (bool disjoint : {true, false}) {
      cells.push_back(RunContentionCell(args, writers, disjoint));
    }
  }

  bool correct_ok = true;
  std::printf("%-12s %8s %8s %8s %12s %12s %10s %10s\n", "bands", "writers",
              "reads", "writes", "read QPS", "latch waits", "opt retry",
              "opt fback");
  for (const ContentionCell& cell : cells) {
    correct_ok = correct_ok && cell.reads_correct;
    std::printf("%-12s %8d %8zu %8zu %12.0f %12lld %10lld %10lld%s\n",
                cell.bands, cell.writers, cell.reads, cell.writes,
                cell.read_qps, static_cast<long long>(cell.latch_waits),
                static_cast<long long>(cell.optimistic_retries),
                static_cast<long long>(cell.optimistic_fallbacks),
                cell.reads_correct ? "" : "  READS WRONG");
  }

  const auto find_cell = [&](int writers, const char* bands) {
    for (const ContentionCell& cell : cells) {
      if (cell.writers == writers && std::string(cell.bands) == bands) {
        return cell;
      }
    }
    return cells.front();
  };
  const double baseline_qps = cells.front().read_qps;
  const double qps_ratio =
      find_cell(4, "disjoint").read_qps / std::max(baseline_qps, 1e-9);
  // Deliberately lenient: the claim is "disjoint writers do not serialize
  // readers", i.e. the ratio is O(1) rather than O(1/writers); 0.2 leaves
  // room for scheduler noise on loaded CI machines.
  const bool qps_ok = qps_ratio >= 0.2;
  std::cout << "\ncovered-probe correctness under concurrent DML: "
            << (correct_ok ? "OK" : "FAIL") << "\n"
            << "read-QPS gate: 4 disjoint-band writers "
            << FormatDouble(qps_ratio, 3)
            << " of baseline >= 0.2: " << (qps_ok ? "OK" : "FAIL") << "\n";

  if (args.json_path.has_value()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"latch_contention\",\n"
         << "  \"scale\": \"" << args.scale << "\",\n"
         << "  \"readers\": " << kContentionReaders << ",\n"
         << "  \"reads_per_reader\": " << kContentionReadsPerReader << ",\n"
         << "  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
      const ContentionCell& cell = cells[i];
      json << "    {\"writers\": " << cell.writers << ", \"bands\": \""
           << cell.bands << "\", \"read_qps\": "
           << FormatDouble(cell.read_qps, 1)
           << ", \"writes\": " << cell.writes
           << ", \"latch_waits\": " << cell.latch_waits
           << ", \"optimistic_retries\": " << cell.optimistic_retries
           << ", \"optimistic_fallbacks\": " << cell.optimistic_fallbacks
           << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"qps_ratio_disjoint_4w\": " << FormatDouble(qps_ratio, 3)
         << ",\n"
         << "  \"reads_correct\": " << (correct_ok ? "true" : "false")
         << ",\n"
         << "  \"qps_gate_ok\": " << (qps_ok ? "true" : "false") << "\n}\n";
    std::ofstream out(*args.json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path->c_str());
      return 1;
    }
    out << json.str();
  }

  if (!correct_ok) return 1;  // wrong answers are fatal even without --check
  return (!args.check || qps_ok) ? 0 : 1;
}

int Run(const bench::BenchArgs& args) {
  std::cout << "Mixed-workload bench — " << args.num_tuples << " tuples, "
            << kStatements << " statements per leg, seed=" << args.seed
            << ", 1-worker service\n\n";

  const double fractions[] = {0.0, 0.1, 0.3};
  const char* names[] = {"read-only", "mixed-10", "mixed-30"};
  LegResult legs[3];
  bool determinism_ok = true;
  for (int i = 0; i < 3; ++i) {
    const LegResult first = RunLeg(args, fractions[i]);
    legs[i] = RunLeg(args, fractions[i]);  // second run is the warmed report
    if (first.trace_hash != legs[i].trace_hash) {
      std::cout << names[i] << ": trace hash differs between identical runs\n";
      determinism_ok = false;
    }
    if (legs[i].dml_executed != static_cast<int64_t>(legs[i].dml)) {
      std::cout << names[i] << ": exec.dml_statements "
                << legs[i].dml_executed << " != driven " << legs[i].dml
                << "\n";
      determinism_ok = false;
    }
    std::printf(
        "%-9s  reads %4zu  dml %4zu  read cost %10.1f  read %7.3f ms  "
        "dml %7.3f ms\n",
        names[i], legs[i].reads, legs[i].dml, legs[i].mean_read_cost,
        legs[i].mean_read_ms, legs[i].mean_dml_ms);
  }

  std::cout << "\ndeterminism (two identical runs per leg, trace + final "
               "state): "
            << (determinism_ok ? "OK" : "FAIL") << "\n";

  // Gate 2 compares cost-model units, not wall time: deterministic for a
  // given seed, so the gate cannot flake on a loaded CI machine.
  const double cost_ratio =
      legs[1].mean_read_cost / std::max(legs[0].mean_read_cost, 1e-9);
  const bool regression_ok = cost_ratio <= 3.0;
  std::cout << "read-cost gate: mixed-10/read-only "
            << FormatDouble(cost_ratio, 3)
            << " <= 3.0: " << (regression_ok ? "OK" : "FAIL") << "\n";

  if (args.json_path.has_value()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"mixed_workload\",\n"
         << "  \"scale\": \"" << args.scale << "\",\n"
         << "  \"statements\": " << kStatements << ",\n"
         << "  \"legs\": [\n";
    for (int i = 0; i < 3; ++i) {
      json << "    {\"write_fraction\": " << FormatDouble(fractions[i], 1)
           << ", \"reads\": " << legs[i].reads
           << ", \"dml\": " << legs[i].dml << ", \"mean_read_cost\": "
           << FormatDouble(legs[i].mean_read_cost, 1)
           << ", \"mean_read_ms\": " << FormatDouble(legs[i].mean_read_ms, 3)
           << ", \"mean_dml_ms\": " << FormatDouble(legs[i].mean_dml_ms, 3)
           << "}" << (i < 2 ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"read_cost_ratio_10\": " << FormatDouble(cost_ratio, 3)
         << ",\n"
         << "  \"determinism_ok\": " << (determinism_ok ? "true" : "false")
         << ",\n"
         << "  \"regression_ok\": " << (regression_ok ? "true" : "false")
         << "\n}\n";
    std::ofstream out(*args.json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path->c_str());
      return 1;
    }
    out << json.str();
  }

  if (!args.check) return determinism_ok ? 0 : 1;
  return (determinism_ok && regression_ok) ? 0 : 1;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  const aib::bench::BenchArgs args = aib::bench::ParseArgs(argc, argv);
  return args.contention ? aib::RunContention(args) : aib::Run(args);
}
