// The two workloads, both on one node. Every one runs one client thread,
// pinned to one CPU, in a closed loop: the next statement is built, sent,
// and checked only after the previous one returned. Each run:
//   1. generates its rows from the seed and sets the engine up
//      kSetupsBefore times (only engine calls are timed);
//   2. runs the timed loop on the last engine until --seconds have passed
//      and at least the signature statements have been executed, checking
//      every answer against the oracle outside the timed calls;
//   3. in a traced run, times the direct layer probes against the same
//      data, and sends a fixed batch of point reads through a 3-shard fleet
//      (the fleet probe) for the service and shard layers;
//   4. drops the engine and sets up kSetupsAfter more times; setup_s is the
//      median of all set-ups.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "exec/morsel.h"
#include "service/query_service.h"
#include "shard/sharded_database.h"
#include "workload/database.h"

namespace perfbench {
namespace {

using aib::Statement;
using aib::StatementKind;

/// Rows loaded per timed LoadTuple batch; generation runs between batches.
constexpr size_t kLoadChunk = 4096;
/// Direct-probe calls and statements of the traced run.
constexpr size_t kProbeValues = 1000;
constexpr size_t kStatementSample = 200;

void Check(const aib::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

aib::Tuple ToTuple(const Row& row) {
  return aib::Tuple({row.v[0], row.v[1], row.v[2]},
                    {std::string(row.payload, 'x')});
}

aib::Rid RidOf(RowKey key) {
  return aib::Rid{static_cast<aib::PageId>((key >> 16) & 0xffffffffULL),
                  static_cast<aib::SlotId>(key & 0xffff)};
}

// --- Statements, outcomes, and the check ------------------------------------

/// One statement the generator produced, with what the oracle expects.
struct Pending {
  StatementKind kind = StatementKind::kSelect;
  ColumnId column = 0;
  Value value = 0;    // select: the point read's value
  RowKey target = 0;  // update / delete
  Row row;            // insert / update: the new row image
  Digest expected;    // select
};

struct Outcome {
  aib::Status status = aib::Status::Ok();
  std::vector<RowKey> keys;
  aib::QueryStats stats;
  /// Time inside the engine calls of this statement.
  int64_t engine_ns = 0;
};

/// Checks `out` against the oracle and applies a DML statement to it.
bool Verify(const Pending& p, const Outcome& out, Oracle* oracle) {
  if (!out.status.ok()) return false;
  switch (p.kind) {
    case StatementKind::kSelect: {
      Digest got;
      for (RowKey key : out.keys) got.Add(key);
      return got == p.expected;
    }
    case StatementKind::kInsert:
      if (out.keys.size() != 1 || oracle->Find(out.keys[0]) != nullptr) {
        return false;
      }
      oracle->Insert(out.keys[0], p.row);
      return true;
    case StatementKind::kUpdate:
      if (out.keys.size() != 1 || (out.keys[0] != p.target &&
                                   oracle->Find(out.keys[0]) != nullptr)) {
        return false;
      }
      oracle->Remove(p.target);
      oracle->Insert(out.keys[0], p.row);
      return true;
    case StatementKind::kDelete:
      if (out.keys.size() != 1 || out.keys[0] != p.target) return false;
      oracle->Remove(p.target);
      return true;
  }
  return false;
}

Pending PointRead(const Oracle& oracle, ColumnId column, Value v) {
  Pending p;
  p.column = column;
  p.value = v;
  p.expected = oracle.Point(column, v);
  return p;
}

/// Writes drawn like the DML mix of mixed_dml: fresh rows across the whole
/// domain, and victims skewed towards recently inserted rows.
Pending RandomWrite(const Oracle& oracle, Rng& rng, uint64_t seed,
                    uint64_t* next_row) {
  Pending p;
  const int64_t pick = rng.Uniform(0, 2);
  if (pick == 0 || oracle.size() == 0) {
    p.kind = StatementKind::kInsert;
    p.row = MakeRow(seed, (*next_row)++);
    return p;
  }
  p.target = oracle.RecentVictim(rng);
  if (pick == 1) {
    p.kind = StatementKind::kUpdate;
    p.row = *oracle.Find(p.target);
    p.row.v[rng.Uniform(0, kIntColumns - 1)] =
        static_cast<Value>(rng.Uniform(1, kDomainMax));
  } else {
    p.kind = StatementKind::kDelete;
  }
  return p;
}

// --- Totals and the signature -----------------------------------------------

/// Work counts summed over statements. Every field repeats exactly for a
/// given seed and statement count: a single client and no wall-clock
/// triggered work make the engine deterministic.
struct Totals {
  uint64_t statements = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t pages_scanned = 0;
  uint64_t pages_skipped = 0;
  uint64_t entries_added = 0;
  uint64_t buffer_probes = 0;
  uint64_t buffer_matches = 0;

  void Add(const Pending& p, const Outcome& out) {
    ++statements;
    (p.kind == StatementKind::kSelect ? reads : writes) += 1;
    const aib::QueryStats& s = out.stats;
    pages_scanned += s.pages_scanned;
    pages_skipped += s.pages_skipped;
    entries_added += s.entries_added;
    buffer_probes += s.buffer_probes;
    buffer_matches += s.buffer_matches;
  }
};

using Counters = std::map<std::string, int64_t>;

void PrintSignature(const Totals& t, const Counters& before,
                    const Counters& after) {
  const int64_t cold_hits = Delta(before, after, aib::kMetricColdHits);
  const int64_t patches =
      Delta(before, after, aib::kMetricColdEntriesPatched);
  const int64_t demoted =
      Delta(before, after, aib::kMetricColdPartitionsDemoted);
  uint64_t h = 0;
  for (uint64_t v :
       {t.statements, t.reads, t.writes, t.pages_scanned, t.pages_skipped,
        t.entries_added, static_cast<uint64_t>(demoted),
        static_cast<uint64_t>(cold_hits), static_cast<uint64_t>(patches)}) {
    h = Mix64(h ^ v);
  }
  std::printf(
      "signature: statements=%llu reads=%llu writes=%llu pages_scanned=%llu "
      "pages_skipped=%llu entries_added=%llu demotions=%lld cold_hits=%lld "
      "cold_patches=%lld hash=%016llx\n",
      static_cast<unsigned long long>(t.statements),
      static_cast<unsigned long long>(t.reads),
      static_cast<unsigned long long>(t.writes),
      static_cast<unsigned long long>(t.pages_scanned),
      static_cast<unsigned long long>(t.pages_skipped),
      static_cast<unsigned long long>(t.entries_added),
      static_cast<long long>(demoted), static_cast<long long>(cold_hits),
      static_cast<long long>(patches), static_cast<unsigned long long>(h));
}

// --- Direct layer probes ----------------------------------------------------

/// What the traced run measures besides the loop's own counts.
struct Probes {
  double plan_us = 0;
  double execute_us = 0;
  double fetch_unpin_ns = 0;
  double buffer_lookup_ns = 0;
  double index_lookup_ns = 0;
  double morsel_speedup = 0;
  uint64_t histogram_samples = 0;
  // The fleet probe's.
  double handoff_us = 0;
  double legs_per_stmt = 0;
  double dispatch_gather_us = 0;
  uint64_t legs_retried = 0;
};

/// Engine-only time of each set-up, in seconds, and its two main parts.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> build_s;
  std::vector<double> load_us_per_row;
};

/// ns per call of `fn(i)` over `n` calls: the median of 10 rounds.
template <typename Fn>
double NsPerCall(size_t n, Fn&& fn) {
  std::vector<double> rounds;
  for (int round = 0; round < 10; ++round) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) fn(i);
    rounds.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(n));
  }
  return Median(std::move(rounds));
}

/// FetchPage + UnpinPage of pages made resident first.
double FetchUnpinNs(aib::BufferPool& pool, const aib::Table& table) {
  const size_t count = std::min<size_t>(256, table.PageCount());
  std::vector<aib::PageId> pages;
  for (size_t i = 0; i < count; ++i) {
    pages.push_back(table.heap().PageIdAt(i * table.PageCount() / count));
  }
  const auto touch = [&](size_t i) {
    if (pool.FetchPage(pages[i]).ok()) {
      Check(pool.UnpinPage(pages[i], false), "UnpinPage");
    }
  };
  for (size_t i = 0; i < count; ++i) touch(i);
  return NsPerCall(count, touch);
}

std::vector<Value> CoveredSample(uint64_t seed) {
  Rng rng(Mix64(seed ^ 0xc0));
  std::vector<Value> values;
  for (size_t i = 0; i < kProbeValues; ++i) {
    values.push_back(static_cast<Value>(rng.Uniform(1, kCoveredMax)));
  }
  return values;
}

std::vector<Value> UncoveredSample(uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x0c));
  std::vector<Value> values;
  for (size_t i = 0; i < kProbeValues; ++i) {
    values.push_back(static_cast<Value>(rng.Uniform(kCoveredMax + 1,
                                                    kDomainMax)));
  }
  return values;
}

/// Partial-index and Index Buffer lookups of one column of `db`.
void LookupProbes(const aib::Database& db, ColumnId column, uint64_t seed,
                  Probes* probes) {
  const std::vector<Value> covered = CoveredSample(seed);
  const std::vector<Value> uncovered = UncoveredSample(seed);
  std::vector<aib::Rid> out;
  if (const aib::PartialIndex* index = db.GetIndex(column)) {
    probes->index_lookup_ns = NsPerCall(covered.size(), [&](size_t i) {
      out.clear();
      index->Lookup(covered[i], &out);
    });
  }
  if (const aib::IndexBuffer* buffer = db.GetBuffer(column)) {
    probes->buffer_lookup_ns = NsPerCall(uncovered.size(), [&](size_t i) {
      out.clear();
      buffer->Lookup(uncovered[i], &out);
    });
  }
}

/// Serial over 4-way execute time of the same read statements, alternating
/// the two so both see the same engine state and machine phase. The 4-way
/// runs use a dispatcher of 3 helpers plus the calling thread, attached
/// for the sample only.
double MorselSpeedup(aib::Executor* executor,
                     const std::vector<Statement>& sample) {
  aib::MorselDispatcher four_way(3);
  std::vector<double> serial_ns;
  std::vector<double> parallel_ns;
  for (const Statement& statement : sample) {
    for (aib::MorselDispatcher* d : {static_cast<aib::MorselDispatcher*>(
                                         nullptr),
                                     &four_way}) {
      executor->SetParallelScan(d);
      const int64_t t0 = NowNs();
      Check(executor->ExecuteStatement(statement).status(), "morsel sample");
      (d == nullptr ? serial_ns : parallel_ns)
          .push_back(static_cast<double>(NowNs() - t0));
    }
  }
  executor->SetParallelScan(nullptr);
  return Median(serial_ns) / Median(parallel_ns);
}

/// Submit -> ready through `service` minus the plan's own wall time.
double HandoffUs(aib::QueryService& service,
                 const std::vector<Statement>& sample) {
  std::vector<double> us;
  for (const Statement& statement : sample) {
    const int64_t t0 = NowNs();
    auto future = service.Submit(statement);
    Check(future.status(), "service Submit");
    aib::Result<aib::StatementResult> result = future.value().get();
    const int64_t span = NowNs() - t0;
    Check(result.status(), "service statement");
    us.push_back(static_cast<double>(span - result.value().stats.wall_ns) /
                 1e3);
  }
  return Median(std::move(us));
}

uint64_t SamplesIn(const aib::Metrics& metrics) {
  uint64_t samples = 0;
  for (const auto& [name, histogram] : metrics.histograms()) {
    samples += histogram.Count();
  }
  return samples;
}

/// Generates rows 0..count-1 of `seed` and loads them with `load` in
/// chunks, recording each in `oracle`. Returns the time spent in `load`
/// only: rows are generated between the timed chunks.
template <typename LoadFn>
int64_t LoadRows(uint64_t seed, size_t count, Oracle* oracle, LoadFn load) {
  int64_t load_ns = 0;
  std::vector<Row> rows;
  std::vector<aib::Tuple> tuples;
  std::vector<RowKey> keys;
  for (size_t first = 0; first < count; first += kLoadChunk) {
    rows.clear();
    tuples.clear();
    keys.clear();
    for (size_t i = first; i < std::min(count, first + kLoadChunk); ++i) {
      rows.push_back(MakeRow(seed, i));
      tuples.push_back(ToTuple(rows.back()));
    }
    const int64_t t0 = NowNs();
    for (const aib::Tuple& tuple : tuples) keys.push_back(load(tuple));
    load_ns += NowNs() - t0;
    for (size_t i = 0; i < rows.size(); ++i) oracle->Insert(keys[i], rows[i]);
  }
  return load_ns;
}

/// Records one set-up's engine-only time and its parts.
void RecordSetup(int64_t construct_ns, int64_t load_ns, int64_t build_ns,
                 size_t rows, SetupTimes* times) {
  times->total_s.push_back(Seconds(construct_ns + load_ns + build_ns));
  times->build_s.push_back(Seconds(build_ns));
  times->load_us_per_row.push_back(static_cast<double>(load_ns) / 1e3 /
                                   static_cast<double>(rows));
}

// --- Single node ------------------------------------------------------------

/// Rows of the single-node workloads: 6.8k pages, well inside the default
/// 65,536-frame pool.
constexpr size_t kNodeRows = 200000;

Statement ToStatement(const Pending& p) {
  switch (p.kind) {
    case StatementKind::kSelect:
      return Statement::Select(aib::Query::Point(p.column, p.value));
    case StatementKind::kInsert:
      return Statement::Insert(ToTuple(p.row));
    case StatementKind::kUpdate:
      return Statement::Update(RidOf(p.target), ToTuple(p.row));
    case StatementKind::kDelete:
      return Statement::Delete(RidOf(p.target));
  }
  return Statement{};
}

/// Statement i of the timed loop.
using NextFn = std::function<Pending(uint64_t)>;

/// One node set up and loaded, with the benchmark's model of its table.
class NodeEngine {
 public:
  explicit NodeEngine(std::unique_ptr<aib::Database> db)
      : db_(std::move(db)) {}

  aib::Database* db() { return db_.get(); }

  Counters counters() const { return db_->metrics().counters(); }

  /// Executor::ExecuteStatement, or in a traced statement the same work as
  /// its two halves, PlanStatement and ExecutePlan, each in its own span.
  Outcome Execute(const Pending& p, Tracer* tracer, uint64_t id) {
    aib::Executor* executor = db_->executor();
    const Statement statement = ToStatement(p);
    Outcome out;
    std::vector<aib::Rid> rids;
    if (tracer == nullptr) {
      const int64_t t0 = NowNs();
      aib::Result<aib::StatementResult> result =
          executor->ExecuteStatement(statement);
      out.engine_ns = NowNs() - t0;
      out.status = result.status();
      if (result.ok()) {
        rids = std::move(result.value().rids);
        out.stats = result.value().stats;
      }
    } else {
      const int64_t root = tracer->Begin("stmt", id);
      const int64_t plan_span = tracer->Begin("exec.plan", id, root);
      std::unique_ptr<aib::PhysicalPlan> plan =
          executor->PlanStatement(statement);
      tracer->End(plan_span);
      const int64_t exec_span = tracer->Begin("exec.execute", id, root);
      aib::Result<aib::QueryResult> result =
          plan != nullptr ? executor->ExecutePlan(plan.get())
                          : aib::Result<aib::QueryResult>(
                                aib::Status::InvalidArgument("no plan"));
      tracer->End(exec_span);
      tracer->End(root);
      out.engine_ns = tracer->Duration(plan_span) + tracer->Duration(exec_span);
      out.status = result.status();
      if (result.ok()) {
        rids = std::move(result.value().rids);
        out.stats = result.value().stats;
      }
    }
    out.keys.reserve(rids.size());
    for (const aib::Rid& rid : rids) out.keys.push_back(KeyOf(0, rid));
    return out;
  }

  /// The traced run's direct layer probes against the data the loop left
  /// behind, on the reads the workload would send next (`more(i)`).
  void Probe(const Tracer& tracer, const NextFn& more, uint64_t seed,
             Probes* probes) {
    std::vector<Statement> sample;
    for (uint64_t i = 0; sample.size() < kStatementSample; ++i) {
      const Pending p = more(i);
      if (p.kind == StatementKind::kSelect) sample.push_back(ToStatement(p));
    }
    probes->plan_us = tracer.MedianSelfUs("exec.plan");
    probes->execute_us = tracer.MedianSelfUs("exec.execute");
    probes->fetch_unpin_ns = FetchUnpinNs(db_->buffer_pool(), db_->table());
    LookupProbes(*db_, 0, seed, probes);
    probes->morsel_speedup = MorselSpeedup(db_->executor(), sample);
    probes->histogram_samples = SamplesIn(db_->metrics());
  }

  Oracle oracle;

 private:
  std::unique_ptr<aib::Database> db_;
};

std::unique_ptr<NodeEngine> BuildNode(uint64_t seed, SetupTimes* times) {
  aib::DatabaseOptions options;
  // Paper Exp. 3 budgets scaled to the table: L = 1.6 entries per row,
  // below the ~2.7 uncovered entries per row of three columns.
  options.space.max_entries = kNodeRows * 8 / 5;
  options.space.max_pages_per_scan = kNodeRows / 155;
  options.space.seed = seed;
  // P = 256 pages, 27 partitions per column, where the paper's scaling
  // gives 2,597 pages and 3 partitions: with 3, one seeded Algorithm 2
  // victim draw decides a third of a buffer's tier, and a cold-run patch
  // moves up to ~75k entries, so write latency differed between seeds.
  options.buffer.partition_pages = 256;
  options.buffer.initial_interval = 20.0;

  int64_t t0 = NowNs();
  auto engine = std::make_unique<NodeEngine>(std::make_unique<aib::Database>(
      aib::Schema::PaperSchema(kIntColumns, kPayloadMax), options));
  const int64_t construct_ns = NowNs() - t0;

  aib::Database* db = engine->db();
  const int64_t load_ns = LoadRows(
      seed, kNodeRows, &engine->oracle, [db](const aib::Tuple& tuple) {
        aib::Result<aib::Rid> rid = db->LoadTuple(tuple);
        Check(rid.status(), "LoadTuple");
        return KeyOf(0, rid.value());
      });

  t0 = NowNs();
  for (ColumnId column = 0; column < kIntColumns; ++column) {
    Check(db->CreatePartialIndex(column,
                                 aib::ValueCoverage::Range(1, kCoveredMax)),
          "CreatePartialIndex");
  }
  RecordSetup(construct_ns, load_ns, NowNs() - t0, kNodeRows, times);
  return engine;
}

/// Column weights of the paper's Exp. 3: 1/2 : 1/3 : 1/6, or 1/6 : 1/3 :
/// 1/2 when `flipped`.
ColumnId WeightedColumn(Rng& rng, bool flipped) {
  const int64_t draw = rng.Uniform(0, 5);
  const ColumnId c = draw < 3 ? 0 : (draw < 5 ? 1 : 2);
  return flipped ? static_cast<ColumnId>(2 - c) : c;
}

// --- Fleet probe ------------------------------------------------------------

constexpr size_t kFleetRows = 60000;
constexpr size_t kShards = 3;
/// Point reads the fleet probe sends.
constexpr size_t kFleetStatements = 3000;

/// 3 hash shards on A, 1 service worker each, hedging off. Built while the
/// client is pinned, so the shard workers share its CPU: spread over vCPUs,
/// each leg handoff waited for an idle vCPU to wake, and that wait swung
/// the fleet's speed by 2x between identical runs; on one CPU a handoff is
/// a plain context switch.
std::unique_ptr<aib::ShardedDatabase> BuildFleet(uint64_t seed,
                                                 Oracle* oracle) {
  aib::ShardedDatabaseOptions options;
  options.router.num_shards = kShards;
  options.router.routing_column = 0;
  options.shard.db.buffer_pool_pages = 4096;
  options.shard.db.space.seed = seed;
  options.shard.service.num_workers = 1;
  options.shard.service.shared_scans = false;
  options.tolerance.seed = seed;
  options.tolerance.hedge_budget = 0;

  auto fleet = std::make_unique<aib::ShardedDatabase>(
      aib::Schema::PaperSchema(kIntColumns, kPayloadMax), options);
  LoadRows(seed, kFleetRows, oracle, [&fleet](const aib::Tuple& tuple) {
    aib::Result<aib::GlobalRid> rid = fleet->LoadTuple(tuple);
    Check(rid.status(), "fleet LoadTuple");
    return KeyOf(rid.value().shard, rid.value().rid);
  });
  for (ColumnId column = 0; column < kIntColumns; ++column) {
    Check(fleet->CreatePartialIndex(column,
                                    aib::ValueCoverage::Range(1, kCoveredMax)),
          "fleet CreatePartialIndex");
  }
  return fleet;
}

/// The service and shard layers, which only a fleet statement crosses.
/// Sends kFleetStatements point reads through
/// ShardedDatabase::ExecuteStatement, 2:1 on A (routed to one shard) and on
/// B (scattered to all three), checks each against the oracle, and asserts
/// that every statement had 1 or 3 legs, both kinds occurred, and none was
/// hedged. Then times shard 0's own service on reads it owns.
void FleetProbe(uint64_t seed, Report* report, Probes* probes) {
  Oracle oracle;
  const std::unique_ptr<aib::ShardedDatabase> fleet =
      BuildFleet(seed, &oracle);
  Rng rng(Mix64(seed ^ 0xf1));
  std::map<size_t, uint64_t> by_legs;
  uint64_t legs = 0;
  uint64_t hedged = 0;
  std::vector<double> outside_us;
  for (size_t i = 0; i < kFleetStatements; ++i) {
    const ColumnId column = rng.Uniform(0, 2) < 2 ? 0 : 1;
    const Pending p = PointRead(
        oracle, column, static_cast<Value>(rng.Uniform(1, kDomainMax)));
    const int64_t t0 = NowNs();
    aib::Result<aib::ShardResult> result = fleet->ExecuteStatement(
        aib::ShardStatement::Select(aib::Query::Point(p.column, p.value)));
    const int64_t span = NowNs() - t0;
    Outcome out;
    out.status = result.status();
    if (result.ok()) {
      const aib::ShardResult& r = result.value();
      for (const aib::GlobalRid& g : r.rids) {
        out.keys.push_back(KeyOf(g.shard, g.rid));
      }
      ++by_legs[r.legs];
      legs += r.legs;
      hedged += r.legs_hedged;
      probes->legs_retried += r.legs_retried;
      // Outside the plan's own wall time (its slowest leg), a fleet
      // statement dispatches its legs and gathers them.
      outside_us.push_back(static_cast<double>(span - r.stats.wall_ns) /
                           1e3);
    }
    ++report->attempted;
    if (!Verify(p, out, &oracle) && ++report->failed <= 5) {
      std::printf("mismatch: fleet statement %zu column=%d value=%d %s\n", i,
                  p.column, p.value, out.status.ToString().c_str());
    }
  }
  probes->legs_per_stmt =
      static_cast<double>(legs) / static_cast<double>(kFleetStatements);
  probes->dispatch_gather_us = Median(std::move(outside_us));
  const uint64_t routed = by_legs[1];
  const uint64_t scattered = by_legs[kShards];
  std::printf("fleet probe: statements=%zu legs=%llu routed=%llu "
              "scattered=%llu hedged=%llu\n",
              kFleetStatements, static_cast<unsigned long long>(legs),
              static_cast<unsigned long long>(routed),
              static_cast<unsigned long long>(scattered),
              static_cast<unsigned long long>(hedged));
  // by_legs now holds the keys 1 and 3, and any other leg count besides.
  report->Require(routed > 0 && scattered > 0 && by_legs.size() == 2,
                  "fleet probe: only 1-leg and 3-leg statements, both "
                  "present");
  report->Require(hedged == 0, "fleet probe: no hedged legs");

  std::vector<Statement> sample;
  for (Value v = 1; sample.size() < kStatementSample; v += 97) {
    if (fleet->router().ShardForValue(v) == 0) {
      sample.push_back(Statement::Select(aib::Query::Point(0, v)));
    }
  }
  probes->handoff_us = HandoffUs(fleet->shard(0).service(), sample);
}

// --- The closed loop --------------------------------------------------------

/// Statements whose totals form the work signature; every loop runs at
/// least this many.
constexpr uint64_t kSignatureStatements = 4000;

/// The end-to-end figures are medians over windows of this much loop time:
/// a stall of the machine then moves one window, not the run's figure.
constexpr int64_t kWindowNs = 1'000'000'000;

struct Window {
  uint64_t statements = 0;
  int64_t engine_ns = 0;
  std::vector<double> read_us;
};

struct LoopResult {
  Totals totals;
  /// Latency of every read and write, in microseconds, and the same split
  /// by statement class (for the progress lines).
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::map<std::string, std::vector<double>> class_us;
  /// Engine time and count of the statements.
  int64_t engine_ns = 0;
  uint64_t statements = 0;
  std::vector<Window> windows;
  int64_t elapsed_ns = 0;
  /// Σ wall_ns and pages of statements that scanned pages, and of those
  /// that only skipped pages (converged probes).
  int64_t scan_wall_ns = 0;
  int64_t skip_wall_ns = 0;
  uint64_t skip_pages = 0;
  /// Traced run: loop time of traced and of untraced statements.
  int64_t traced_ns = 0;
  uint64_t traced = 0;
  int64_t untraced_ns = 0;
  uint64_t untraced = 0;
  Counters before;
  Counters after;
};

std::string ClassOf(const Pending& p) {
  if (p.kind != StatementKind::kSelect) return aib::StatementKindName(p.kind);
  return p.value <= kCoveredMax ? "covered" : "uncovered";
}

/// Runs statements until `seconds` have passed and at least
/// kSignatureStatements ran, and prints the signature of those. In a traced
/// run every other statement is traced, so traced and untraced statements
/// share the engine state and machine phase, and their rates give the
/// tracing overhead.
LoopResult RunLoop(double seconds, const NextFn& next, NodeEngine* engine,
                   Tracer* tracer, Report* report) {
  LoopResult r;
  r.before = engine->counters();
  Window current;
  const auto run = [&](const Pending& p, uint64_t id) {
    const bool traced = tracer->enabled() && id % 2 == 0;
    const int64_t t0 = NowNs();
    Outcome out = engine->Execute(p, traced ? tracer : nullptr, id);
    (traced ? r.traced_ns : r.untraced_ns) += NowNs() - t0;
    (traced ? r.traced : r.untraced) += 1;
    ++report->attempted;
    if (!Verify(p, out, &engine->oracle)) {
      ++report->failed;
      if (report->failed <= 5) {
        std::printf("mismatch: statement %llu kind=%s column=%d value=%d %s\n",
                    static_cast<unsigned long long>(id),
                    aib::StatementKindName(p.kind), p.column, p.value,
                    out.status.ToString().c_str());
      }
    }
    r.totals.Add(p, out);
    const double us = static_cast<double>(out.engine_ns) / 1e3;
    (p.kind == StatementKind::kSelect ? r.read_us : r.write_us).push_back(us);
    if (p.kind == StatementKind::kSelect) current.read_us.push_back(us);
    r.class_us[ClassOf(p)].push_back(us);
    r.engine_ns += out.engine_ns;
    ++r.statements;
    current.engine_ns += out.engine_ns;
    ++current.statements;
    if (p.kind == StatementKind::kSelect) {
      if (out.stats.pages_scanned > 0) {
        r.scan_wall_ns += out.stats.wall_ns;
      } else if (out.stats.pages_skipped > 0) {
        r.skip_wall_ns += out.stats.wall_ns;
        r.skip_pages += out.stats.pages_skipped;
      }
    }
  };

  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  const int64_t start = NowNs();
  int64_t window_end = start + kWindowNs;
  for (uint64_t i = 0;; ++i) {
    const int64_t now = NowNs();
    if (now >= window_end) {
      r.windows.push_back(std::move(current));
      current = Window();
      window_end = now + kWindowNs;
    }
    if (i >= kSignatureStatements && now - start >= budget_ns) break;
    run(next(i), i);
    if (i + 1 == kSignatureStatements) {
      PrintSignature(r.totals, r.before, engine->counters());
    }
  }
  if (r.windows.empty()) r.windows.push_back(std::move(current));
  r.elapsed_ns = NowNs() - start;
  r.after = engine->counters();
  return r;
}


// --- Metrics ----------------------------------------------------------------

/// A window's figure; nullopt when the window has too few samples for it.
using WindowFn = std::function<std::optional<double>(const Window&)>;

/// Median of `fn` over the windows that have a figure. With fewer than 3
/// such windows, `fn` of the whole run as one window.
double WindowMedian(const LoopResult& loop, const WindowFn& fn) {
  std::vector<double> values;
  Window all;
  for (const Window& w : loop.windows) {
    if (const std::optional<double> v = fn(w)) values.push_back(*v);
    all.statements += w.statements;
    all.engine_ns += w.engine_ns;
    all.read_us.insert(all.read_us.end(), w.read_us.begin(), w.read_us.end());
  }
  if (values.size() >= 3) return Median(std::move(values));
  return fn(all).value_or(0);
}

std::optional<double> Qps(const Window& w) {
  if (w.statements == 0) return std::nullopt;
  return static_cast<double>(w.statements) / Seconds(w.engine_ns);
}

/// Percentiles need enough samples in a window to mean anything.
constexpr size_t kMinWindowSamples = 20;

WindowFn ReadPercentile(double q) {
  return [q](const Window& w) -> std::optional<double> {
    if (w.read_us.size() < kMinWindowSamples) return std::nullopt;
    return Percentile(w.read_us, q);
  };
}

void EndToEnd(const LoopResult& loop, double setup_s, Report* report) {
  report->Set("qps", WindowMedian(loop, Qps), "1/s");
  report->Set("read_p50_us", WindowMedian(loop, ReadPercentile(0.5)), "us");
  report->Set("read_p90_us", WindowMedian(loop, ReadPercentile(0.9)), "us");
  report->Set("setup_s", setup_s, "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

void PerLayer(const LoopResult& loop, const Probes& probes,
              const SetupTimes& times, const Tracer& tracer,
              Report* report) {
  const Totals& t = loop.totals;
  const double stmts =
      static_cast<double>(std::max<uint64_t>(1, t.statements));
  const double nwrites =
      static_cast<double>(std::max<uint64_t>(1, t.writes));
  const auto d = [&](const char* name) {
    return static_cast<double>(Delta(loop.before, loop.after, name));
  };
  const double hits = d(aib::kMetricBufferHits);
  const double misses = d(aib::kMetricBufferMisses);

  report->Set("storage.pages_read_per_stmt", d(aib::kMetricPagesRead) / stmts,
              "count");
  report->Set("storage.pool_hit_rate",
              hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report->Set("storage.fetch_unpin_ns", probes.fetch_unpin_ns, "ns");
  report->Set("storage.pin_waits", d(aib::kMetricBufferPinWaits), "count");
  report->Set("exec.plan_us", probes.plan_us, "us");
  report->Set("exec.execute_us", probes.execute_us, "us");
  report->Set("exec.scan_ns_per_page",
              t.pages_scanned > 0 ? static_cast<double>(loop.scan_wall_ns) /
                                        static_cast<double>(t.pages_scanned)
                                  : 0,
              "ns");
  report->Set("exec.skip_ns_per_page",
              loop.skip_pages > 0 ? static_cast<double>(loop.skip_wall_ns) /
                                        static_cast<double>(loop.skip_pages)
                                  : 0,
              "ns");
  report->Set("exec.pages_scanned_per_stmt",
              static_cast<double>(t.pages_scanned) / stmts, "count");
  report->Set("exec.pages_skipped_per_stmt",
              static_cast<double>(t.pages_skipped) / stmts, "count");
  report->Set("exec.morsel_speedup", probes.morsel_speedup, "x");
  report->Set("core.entries_added_per_stmt",
              static_cast<double>(t.entries_added) / stmts, "count");
  report->Set("core.partitions_demoted", d(aib::kMetricColdPartitionsDemoted),
              "count");
  report->Set("core.partitions_promoted",
              d(aib::kMetricColdPartitionsPromoted), "count");
  report->Set("core.cold_hits", d(aib::kMetricColdHits), "count");
  report->Set("core.buffer_match_ratio",
              t.buffer_probes > 0 ? static_cast<double>(t.buffer_matches) /
                                        static_cast<double>(t.buffer_probes)
                                  : 0,
              "ratio");
  report->Set("core.buffer_lookup_ns", probes.buffer_lookup_ns, "ns");
  report->Set("core.cold_patches_per_write",
              d(aib::kMetricColdEntriesPatched) / nwrites, "count");
  report->Set("index.lookup_ns", probes.index_lookup_ns, "ns");
  report->Set("index.probes_per_stmt", d(aib::kMetricIndexProbes) / stmts,
              "count");
  report->Set("index.maint_per_write",
              (d(aib::kMetricIndexInserts) + d(aib::kMetricIndexRemoves)) /
                  nwrites,
              "count");
  report->Set("index.build_s", Median(times.build_s), "s");
  report->Set("common.latch_acquires_per_stmt",
              (d(aib::kMetricLatchSharedAcquires) +
               d(aib::kMetricLatchExclusiveAcquires)) /
                  stmts,
              "count");
  report->Set("common.latch_waits", d(aib::kMetricLatchWaits), "count");
  report->Set("common.histogram_samples",
              static_cast<double>(probes.histogram_samples), "count");
  report->Set("service.handoff_us", probes.handoff_us, "us");
  report->Set("shard.legs_per_stmt", probes.legs_per_stmt, "count");
  report->Set("shard.dispatch_gather_us", probes.dispatch_gather_us, "us");
  report->Set("shard.legs_retried", static_cast<double>(probes.legs_retried),
              "count");
  report->Set("workload.load_us_per_row", Median(times.load_us_per_row),
              "us");

  // Write latency, tails and tracing overhead: reported, never gated.
  const std::vector<double>& reads = loop.read_us;
  const std::vector<double>& w = loop.write_us;
  report->Set("write.p50_us", Percentile(w, 0.5), "us");
  report->Set("write.p90_us", Percentile(w, 0.9), "us");
  report->Set("tail.read_p99_us", Percentile(reads, 0.99), "us");
  report->Set("tail.read_p999_us", Percentile(reads, 0.999), "us");
  report->Set("tail.read_samples", static_cast<double>(reads.size()),
              "count");
  report->Set("tail.write_p99_us", Percentile(w, 0.99), "us");
  report->Set("tail.write_p999_us", Percentile(w, 0.999), "us");
  report->Set("tail.write_samples", static_cast<double>(w.size()), "count");
  const double traced_qps = static_cast<double>(loop.traced) /
                            Seconds(std::max<int64_t>(1, loop.traced_ns));
  const double untraced_qps = static_cast<double>(loop.untraced) /
                              Seconds(std::max<int64_t>(1, loop.untraced_ns));
  report->Set("trace.qps_ratio",
              untraced_qps > 0 ? traced_qps / untraced_qps : 0, "ratio");
  report->Set("trace.stmt_self_us", tracer.MedianSelfUs("stmt"), "us");
}

void PrintSummary(const LoopResult& r) {
  std::printf("loop: statements=%llu reads=%llu writes=%llu engine_s=%.3f "
              "elapsed_s=%.3f qps_windows=%zu\n",
              static_cast<unsigned long long>(r.totals.statements),
              static_cast<unsigned long long>(r.totals.reads),
              static_cast<unsigned long long>(r.totals.writes),
              Seconds(r.engine_ns), Seconds(r.elapsed_ns),
              r.windows.size());
  for (const auto& [name, us] : r.class_us) {
    std::printf("  %-22s n=%-8zu p50_us=%-10.2f p90_us=%-10.2f p99_us=%.2f\n",
                name.c_str(), us.size(), Percentile(us, 0.5),
                Percentile(us, 0.9), Percentile(us, 0.99));
  }
}

// --- One run ----------------------------------------------------------------

/// Statement i of the timed loop, drawn against the engine's oracle.
using WorkloadFn = std::function<Pending(uint64_t i, const Oracle& oracle)>;
using ValidateFn = std::function<void(const LoopResult&, Report*)>;

/// Set-ups per run: the engine of the loop is the last of those before it;
/// the others are built and dropped, and those after the loop run once the
/// loop's engine is gone. Set-up speed follows the machine's phases, which
/// last seconds, so the set-ups are spread over the run like the loop's
/// windows, and setup_s is the median of all of them.
constexpr int kSetupsBefore = 6;
constexpr int kSetupsAfter = 6;

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

/// Sets up, runs the closed loop on the last engine set up, checks it, and
/// in a traced run probes the layers directly.
Report Run(const Args& args, const WorkloadFn& next,
           const ValidateFn& validate) {
  Report report;
  // The client runs pinned to one CPU, so it is never migrated mid-run.
  // Threads created under the pin (the fleet probe's shard workers) inherit
  // it; why the fleet wants that is said at BuildFleet.
  std::optional<CpuPin> pin(std::in_place);
  SetupTimes times;
  std::unique_ptr<NodeEngine> engine;
  for (int i = 0; i < kSetupsBefore; ++i) {
    engine.reset();
    engine = BuildNode(args.seed, &times);
  }
  Tracer tracer(args.trace);
  const LoopResult loop = RunLoop(
      args.seconds, [&](uint64_t i) { return next(i, engine->oracle); },
      engine.get(), &tracer, &report);
  PrintSummary(loop);
  validate(loop, &report);

  Probes probes;
  if (args.trace) {
    // Threads the direct probes create (the morsel helpers) may use every
    // CPU.
    pin.reset();
    engine->Probe(
        tracer,
        [&](uint64_t i) { return next(loop.statements + i, engine->oracle); },
        args.seed, &probes);
    pin.emplace();
    FleetProbe(args.seed, &report, &probes);
  }
  engine.reset();
  for (int i = 0; i < kSetupsAfter; ++i) BuildNode(args.seed, &times);
  std::printf("setup: setup_s=%s\n", Join(times.total_s).c_str());

  if (!args.trace) {
    EndToEnd(loop, Median(times.total_s), &report);
  } else {
    PerLayer(loop, probes, times, tracer, &report);
    if (!args.trace_file.empty() && !tracer.Write(args.trace_file)) {
      report.Require(false, "trace file written");
    }
  }
  return report;
}

}  // namespace

Report RunAdaptPoint(const Args& args) {
  auto rng = std::make_shared<Rng>(Mix64(args.seed ^ 0xa1));
  auto values = std::make_shared<std::vector<UncoveredValues>>();
  for (int c = 0; c < kIntColumns; ++c) {
    values->emplace_back(Mix64(args.seed * 31 + static_cast<uint64_t>(c)),
                         0.9);
  }
  // The column mix flips every kFlipEvery statements, so the re-adaptation
  // after a flip falls in every window the end-to-end figures are taken
  // from, and the signature spans one flip.
  constexpr uint64_t kFlipEvery = kSignatureStatements / 2;
  const WorkloadFn next = [rng, values](uint64_t i, const Oracle& oracle) {
    const ColumnId column = WeightedColumn(*rng, (i / kFlipEvery) % 2 == 1);
    return PointRead(oracle, column, (*values)[column].Sample(*rng));
  };
  return Run(args, next, [](const LoopResult& loop, Report* report) {
    report->Require(Delta(loop.before, loop.after,
                          aib::kMetricColdPartitionsDemoted) > 0,
                    "adapt_point: partitions demoted");
    report->Require(
        Delta(loop.before, loop.after, aib::kMetricColdHits) > 0,
        "adapt_point: cold hits");
  });
}

Report RunMixedDml(const Args& args) {
  const uint64_t seed = args.seed;
  auto rng = std::make_shared<Rng>(Mix64(seed ^ 0xd1));
  auto next_row = std::make_shared<uint64_t>(kNodeRows);
  auto values = std::make_shared<std::vector<UncoveredValues>>();
  for (int c = 0; c < kIntColumns; ++c) {
    values->emplace_back(Mix64(seed * 37 + static_cast<uint64_t>(c)), 0.9);
  }
  const WorkloadFn next = [rng, next_row, values, seed](uint64_t,
                                                        const Oracle& oracle) {
    // 30% writes; reads 2:1 covered:uncovered, so that read_p50_us falls
    // inside the covered mode and read_p90_us inside the uncovered one (at
    // 1:1 the median sits on the gap between ~15 us and ~500 us).
    const int64_t draw = rng->Uniform(0, 29);
    if (draw < 9) return RandomWrite(oracle, *rng, seed ^ 0xd2, next_row.get());
    const ColumnId column = WeightedColumn(*rng, false);
    const Value v = draw < 23
                        ? static_cast<Value>(rng->Uniform(1, kCoveredMax))
                        : (*values)[column].Sample(*rng);
    return PointRead(oracle, column, v);
  };
  return Run(args, next, [](const LoopResult& loop, Report* report) {
    report->Require(Delta(loop.before, loop.after,
                          aib::kMetricColdEntriesPatched) > 0,
                    "mixed_dml: cold entries patched");
  });
}

}  // namespace perfbench
