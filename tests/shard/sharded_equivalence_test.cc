#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shard/sharded_database.h"
#include "storage/fault_injector.h"
#include "workload/workload_gen.h"

namespace aib {
namespace {

// The cross-deployment contract: replaying the same deterministic
// multi-tenant trace against a single node and against N-shard fleets
// must produce identical order-normalized row CONTENTS per statement —
// rids are placement-dependent, row values are not.

constexpr Value kLoadLo = 1;
constexpr Value kLoadHi = 2000;
constexpr Value kCoveredHi = 200;
constexpr size_t kRows = 400;
constexpr size_t kTenants = 4;

Schema TestSchema() { return Schema::PaperSchema(2, 16); }

MixedWorkloadOptions TraceOptions(size_t num_statements) {
  MixedWorkloadOptions options;
  options.num_statements = num_statements;
  options.write_fraction = 0.4;
  options.values_per_tuple = 2;
  options.write_lo = kCoveredHi + 1;
  options.write_hi = kLoadHi;
  options.victim_zipf_theta = 0.6;
  options.num_tenants = kTenants;
  options.tenant_zipf_theta = 0.5;
  options.per_tenant_key_ranges = true;
  ColumnMix routed;  // routing column: routable points, some covered
  routed.column = 0;
  routed.weight = 2.0;
  routed.hit_rate = 0.3;
  routed.covered_lo = 1;
  routed.covered_hi = kCoveredHi;
  routed.uncovered_lo = kCoveredHi + 1;
  routed.uncovered_hi = kLoadHi;
  ColumnMix scattered;  // non-routing column: always scatters
  scattered.column = 1;
  scattered.weight = 1.0;
  scattered.hit_rate = 0.0;
  scattered.uncovered_lo = kLoadLo;
  scattered.uncovered_hi = kLoadHi;
  options.read_mix = {routed, scattered};
  return options;
}

ShardOptions SmallShardOptions() {
  ShardOptions options;
  options.db.max_tuples_per_page = 8;
  options.db.space.max_entries = 2000;
  options.db.space.max_pages_per_scan = 20;
  options.service.num_workers = 1;  // deterministic per-shard FIFO
  return options;
}

/// The single-node reference: one Shard, no routing. Every statement goes
/// through the node's QueryService and every rid carries shard 0, so the
/// replay drives it and a fleet with one rid bookkeeping scheme.
class SingleNode {
 public:
  SingleNode() : node_(0, TestSchema(), SmallShardOptions()) {}

  const Schema& schema() const { return node_.db().table().schema(); }

  Result<GlobalRid> LoadTuple(const Tuple& tuple) {
    AIB_ASSIGN_OR_RETURN(Rid rid, node_.db().LoadTuple(tuple));
    return GlobalRid{0, rid};
  }

  Status CreatePartialIndex(ColumnId column, ValueCoverage coverage) {
    return node_.db().CreatePartialIndex(column, std::move(coverage));
  }

  Result<ShardResult> ExecuteStatement(const ShardStatement& statement,
                                       const ShardSubmitOptions& submit = {}) {
    Statement local;
    switch (statement.kind) {
      case StatementKind::kSelect:
        local = Statement::Select(statement.query);
        break;
      case StatementKind::kInsert:
        local = Statement::Insert(statement.tuple);
        break;
      case StatementKind::kUpdate:
        local = Statement::Update(statement.target.rid, statement.tuple);
        break;
      case StatementKind::kDelete:
        local = Statement::Delete(statement.target.rid);
        break;
    }
    SubmitOptions options;
    options.deadline = submit.deadline;
    options.cancel = submit.cancel;
    AIB_ASSIGN_OR_RETURN(std::future<Result<StatementResult>> future,
                         node_.service().Submit(local, options));
    AIB_ASSIGN_OR_RETURN(StatementResult result, future.get());
    ShardResult out;
    for (const Rid& rid : result.rids) out.rids.push_back(GlobalRid{0, rid});
    out.rows_affected = result.rows_affected;
    out.stats = result.stats;
    out.legs = 1;
    return out;
  }

  Result<Tuple> FetchRow(const GlobalRid& grid) const {
    return node_.db().table().Get(grid.rid);
  }

 private:
  Shard node_;
};

// Provision, RowContents and Replay take either deployment: the
// single-node reference or a ShardedDatabase.

template <typename Deployment>
void Provision(Deployment* target) {
  Rng rng(424242);
  for (size_t i = 0; i < kRows; ++i) {
    const Value a = static_cast<Value>(rng.UniformInt(kLoadLo, kLoadHi));
    const Value b = static_cast<Value>(rng.UniformInt(kLoadLo, kLoadHi));
    ASSERT_TRUE(target->LoadTuple(Tuple({a, b}, {"row"})).ok());
  }
  ASSERT_TRUE(
      target->CreatePartialIndex(0, ValueCoverage::Range(1, kCoveredHi)).ok());
}

std::unique_ptr<ShardedDatabase> MakeFleet(size_t shards,
                                           ShardingPolicy policy) {
  ShardedDatabaseOptions options;
  options.router.num_shards = shards;
  options.router.policy = policy;
  options.router.routing_column = 0;
  options.router.range_min = kLoadLo;
  options.router.range_max = kLoadHi;
  options.shard = SmallShardOptions();
  auto fleet = std::make_unique<ShardedDatabase>(TestSchema(), options);
  Provision(fleet.get());
  return fleet;
}

/// One row's contents, normalized to its int-column values. Fetching is
/// harness materialization, not the system under test — mask fault
/// injection so the oracle comparison itself never rolls the dice (the
/// statements being compared run with faults live).
template <typename Deployment>
std::vector<Value> RowContents(const Deployment& target,
                               const GlobalRid& grid) {
  FaultInjector::ScopedSuspend suspend;
  Result<Tuple> tuple = target.FetchRow(grid);
  EXPECT_TRUE(tuple.ok()) << tuple.status().ToString();
  if (!tuple.ok()) return {};
  return {tuple->IntValue(target.schema(), 0),
          tuple->IntValue(target.schema(), 1)};
}

struct ReplayTrace {
  /// Per select statement: the sorted row contents it returned.
  std::vector<std::vector<std::vector<Value>>> selects;
  /// Per DML statement: rows_affected.
  std::vector<size_t> dml_rows;
  /// Order-normalized full-table contents after the replay.
  std::vector<std::vector<Value>> final_rows;
  /// Statements that failed (status strings, for diagnostics).
  std::vector<std::string> failures;
};

/// Replays the trace, resolving victim ranks against per-tenant live-rid
/// lists exactly as the generator contract prescribes (rank 1 = newest).
template <typename Deployment>
ReplayTrace Replay(Deployment* target, size_t num_statements,
                   uint64_t seed, const ShardSubmitOptions& submit = {}) {
  ReplayTrace trace;
  MixedWorkloadGenerator gen(TraceOptions(num_statements), seed);
  std::vector<std::vector<GlobalRid>> live(kTenants);
  while (auto op = gen.Next()) {
    std::vector<GlobalRid>& mine = live[op->tenant];
    switch (op->kind) {
      case StatementKind::kSelect: {
        Result<ShardResult> result =
            target->ExecuteStatement(ShardStatement::Select(op->query), submit);
        if (!result.ok()) {
          trace.failures.push_back(result.status().ToString());
          trace.selects.emplace_back();
          break;
        }
        std::vector<std::vector<Value>> rows;
        rows.reserve(result->rids.size());
        for (const GlobalRid& grid : result->rids) {
          rows.push_back(RowContents(*target, grid));
        }
        std::sort(rows.begin(), rows.end());
        trace.selects.push_back(std::move(rows));
        break;
      }
      case StatementKind::kInsert: {
        Result<ShardResult> result = target->ExecuteStatement(
            ShardStatement::Insert(Tuple(op->values, {"row"})), submit);
        if (!result.ok()) {
          trace.failures.push_back(result.status().ToString());
          break;
        }
        mine.push_back(result->rids.at(0));
        trace.dml_rows.push_back(result->rows_affected);
        break;
      }
      case StatementKind::kUpdate: {
        const size_t slot = mine.size() - op->victim_rank;
        Result<ShardResult> result = target->ExecuteStatement(
            ShardStatement::Update(mine[slot], Tuple(op->values, {"row"})),
            submit);
        if (!result.ok()) {
          trace.failures.push_back(result.status().ToString());
          break;
        }
        mine[slot] = result->rids.at(0);  // row may have moved (or migrated)
        trace.dml_rows.push_back(result->rows_affected);
        break;
      }
      case StatementKind::kDelete: {
        const size_t slot = mine.size() - op->victim_rank;
        Result<ShardResult> result = target->ExecuteStatement(
            ShardStatement::Delete(mine[slot]), submit);
        if (!result.ok()) {
          trace.failures.push_back(result.status().ToString());
          break;
        }
        mine.erase(mine.begin() + static_cast<ptrdiff_t>(slot));
        trace.dml_rows.push_back(result->rows_affected);
        break;
      }
    }
  }
  // Full-table contents via an unrouted scatter (non-routing column spans
  // the whole domain).
  Result<ShardResult> all =
      target->ExecuteStatement(
          ShardStatement::Select(Query::Range(1, kLoadLo, kLoadHi)), submit);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  if (all.ok()) {
    for (const GlobalRid& grid : all->rids) {
      trace.final_rows.push_back(RowContents(*target, grid));
    }
    std::sort(trace.final_rows.begin(), trace.final_rows.end());
  }
  return trace;
}

void ExpectSameTrace(const ReplayTrace& a, const ReplayTrace& b) {
  ASSERT_TRUE(a.failures.empty()) << a.failures.front();
  ASSERT_TRUE(b.failures.empty()) << b.failures.front();
  ASSERT_EQ(a.selects.size(), b.selects.size());
  for (size_t i = 0; i < a.selects.size(); ++i) {
    EXPECT_EQ(a.selects[i], b.selects[i]) << "select " << i;
  }
  EXPECT_EQ(a.dml_rows, b.dml_rows);
  EXPECT_EQ(a.final_rows, b.final_rows);
}

TEST(ShardedEquivalenceTest, OneShardFleetMatchesSingleNode) {
  SingleNode single;
  Provision(&single);
  auto fleet = MakeFleet(1, ShardingPolicy::kHash);
  ExpectSameTrace(Replay(&single, 300, 7), Replay(fleet.get(), 300, 7));
}

TEST(ShardedEquivalenceTest, FourHashShardsMatchSingleNode) {
  SingleNode single;
  Provision(&single);
  auto fleet = MakeFleet(4, ShardingPolicy::kHash);
  ExpectSameTrace(Replay(&single, 300, 7), Replay(fleet.get(), 300, 7));
}

TEST(ShardedEquivalenceTest, ThreeRangeShardsMatchSingleNode) {
  SingleNode single;
  Provision(&single);
  auto fleet = MakeFleet(3, ShardingPolicy::kRange);
  ExpectSameTrace(Replay(&single, 300, 7), Replay(fleet.get(), 300, 7));
}

TEST(ShardedEquivalenceTest, UpdateAcrossShardBoundaryMigratesTheRow) {
  auto fleet = MakeFleet(4, ShardingPolicy::kHash);
  // Insert a row, then update its routing value until the router places
  // the new value on a different shard — the update must move the row.
  Result<ShardResult> inserted =
      fleet->ExecuteStatement(ShardStatement::Insert(Tuple({500, 1}, {"row"})));
  ASSERT_TRUE(inserted.ok());
  GlobalRid home = inserted->rids.at(0);
  Value moved_value = 0;
  for (Value v = 501; v < 600; ++v) {
    if (fleet->router().ShardForValue(v) != home.shard) {
      moved_value = v;
      break;
    }
  }
  ASSERT_NE(moved_value, 0);
  Result<ShardResult> updated = fleet->ExecuteStatement(
      ShardStatement::Update(home, Tuple({moved_value, 1}, {"row"})));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->rids.at(0).shard,
            fleet->router().ShardForValue(moved_value));
  EXPECT_NE(updated->rids.at(0).shard, home.shard);
  EXPECT_EQ(updated->legs, 2u);
  EXPECT_EQ(fleet->router_metrics().Get(kMetricShardRowsMigrated), 1);
  // The row is findable at its new home and gone from the old shard.
  Result<ShardResult> found =
      fleet->ExecuteStatement(
          ShardStatement::Select(Query::Point(0, moved_value)));
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->rids.size(), 1u);
  EXPECT_EQ(found->rids[0], updated->rids.at(0));
  Result<ShardResult> gone =
      fleet->ExecuteStatement(ShardStatement::Select(Query::Point(0, 500)));
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->rids.empty());
}

TEST(ShardedEquivalenceTest, RoutedPointQueriesUseOneLeg) {
  auto fleet = MakeFleet(4, ShardingPolicy::kHash);
  Result<ShardResult> routed =
      fleet->ExecuteStatement(ShardStatement::Select(Query::Point(0, 1234)));
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->legs, 1u);
  Result<ShardResult> scattered =
      fleet->ExecuteStatement(ShardStatement::Select(Query::Point(1, 1234)));
  ASSERT_TRUE(scattered.ok());
  EXPECT_EQ(scattered->legs, 4u);
}

TEST(ShardedEquivalenceTest, ChaosReplayStillMatchesCleanSingleNode) {
  // Oracle: a clean single node. Subject: a 4-shard fleet with seeded
  // per-shard fault injection (decorrelated streams). Leg retries plus
  // the per-shard service retries must make the trace bit-identical
  // anyway.
  SingleNode single;
  Provision(&single);
  // A pool smaller than the table keeps reads on the disk path, where
  // faults inject (a big pool would absorb every read after provisioning).
  ShardedDatabaseOptions fleet_options;
  fleet_options.router.num_shards = 4;
  fleet_options.router.policy = ShardingPolicy::kHash;
  fleet_options.router.routing_column = 0;
  fleet_options.router.range_min = kLoadLo;
  fleet_options.router.range_max = kLoadHi;
  fleet_options.shard = SmallShardOptions();
  fleet_options.shard.db.buffer_pool_pages = 8;
  auto fleet = std::make_unique<ShardedDatabase>(TestSchema(), fleet_options);
  Provision(fleet.get());
  for (size_t s = 0; s < fleet->ShardCount(); ++s) {
    FaultInjectorOptions faults;
    faults.seed = 1700 + s;
    faults.read_fault_rate = 0.02;
    faults.write_fault_rate = 0.02;
    faults.corruption_fraction = 0.3;
    fleet->shard(s).db().catalog().disk().fault_injector().Arm(faults);
  }
  ExpectSameTrace(Replay(&single, 200, 11), Replay(fleet.get(), 200, 11));
  int64_t injected = 0;
  for (size_t s = 0; s < fleet->ShardCount(); ++s) {
    injected += fleet->shard(s).metrics().Get(kMetricFaultsInjected);
  }
  EXPECT_GT(injected, 0) << "chaos run injected nothing — rate too low";
}

TEST(ShardedEquivalenceTest, GenerousDeadlineDoesNotChangeResults) {
  SingleNode single;
  Provision(&single);
  auto fleet = MakeFleet(4, ShardingPolicy::kHash);
  ShardSubmitOptions submit;
  submit.deadline = std::chrono::milliseconds(60000);
  ExpectSameTrace(Replay(&single, 150, 13),
                  Replay(fleet.get(), 150, 13, submit));
}

TEST(ShardedEquivalenceTest, PreCancelledStatementFailsOnBothDeployments) {
  SingleNode single;
  Provision(&single);
  auto fleet = MakeFleet(4, ShardingPolicy::kHash);
  ShardSubmitOptions submit;
  submit.cancel = MakeCancelToken();
  submit.cancel->store(true);
  const Query query = Query::Range(1, kLoadLo, kLoadHi);
  Result<ShardResult> on_single =
      single.ExecuteStatement(ShardStatement::Select(query), submit);
  Result<ShardResult> on_fleet =
      fleet->ExecuteStatement(ShardStatement::Select(query), submit);
  ASSERT_FALSE(on_single.ok());
  ASSERT_FALSE(on_fleet.ok());
  EXPECT_TRUE(on_single.status().IsCancelled())
      << on_single.status().ToString();
  EXPECT_TRUE(on_fleet.status().IsCancelled()) << on_fleet.status().ToString();
}

TEST(ShardedEquivalenceTest, FleetCountersRollUpEveryShard) {
  auto fleet = MakeFleet(4, ShardingPolicy::kHash);
  ASSERT_TRUE(fleet->ExecuteStatement(
      ShardStatement::Select(Query::Range(1, kLoadLo, kLoadHi))).ok());
  const auto counters = fleet->FleetCounters();
  int64_t per_shard_sum = 0;
  for (size_t s = 0; s < fleet->ShardCount(); ++s) {
    per_shard_sum += fleet->shard(s).metrics().Get(kMetricPagesRead);
  }
  EXPECT_EQ(counters.at(kMetricPagesRead), per_shard_sum);
  EXPECT_GT(counters.at(kMetricShardLegsDispatched), 0);
}

int64_t CounterDelta(const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after,
                     const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

TEST(ShardedEquivalenceTest, MergedStatsCarryEveryLegCounter) {
  // Demoting every shard's hot partitions moves its buffered entries to
  // the cold tier. A select past every buffered key then probes the cold
  // runs without promoting them, and the next uncovered select promotes
  // them hot again. The merged ShardResult stats must report the cold-tier
  // traffic and the promotions the shards' own metrics saw — no leg
  // counter dropped in the gather.
  auto fleet = MakeFleet(4, ShardingPolicy::kHash);
  const Query uncovered = Query::Range(0, kCoveredHi + 1, kLoadHi);
  Result<ShardResult> warm =
      fleet->ExecuteStatement(ShardStatement::Select(uncovered));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->legs, fleet->ShardCount());
  ASSERT_GT(warm->stats.entries_added, 0u);
  for (size_t s = 0; s < fleet->ShardCount(); ++s) {
    IndexBuffer* buffer = fleet->shard(s).db().GetBuffer(0);
    ASSERT_NE(buffer, nullptr);
    for (const IndexBuffer::PartitionStats& stats :
         buffer->PartitionSnapshot()) {
      buffer->DemotePartition(stats.id);
    }
    ASSERT_GT(buffer->ColdPartitionCount(), 0u) << "shard " << s;
  }

  auto before = fleet->FleetCounters();
  Result<ShardResult> past =
      fleet->ExecuteStatement(
          ShardStatement::Select(Query::Range(0, kLoadHi + 1, kLoadHi + 100)));
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  auto after = fleet->FleetCounters();
  EXPECT_TRUE(past->rids.empty());
  EXPECT_GT(past->stats.cold_probes, 0u);
  EXPECT_EQ(past->stats.partitions_promoted, 0u);
  EXPECT_EQ(past->stats.cold_matches, 0u);
  EXPECT_EQ(CounterDelta(before, after, kMetricColdHits), 0);

  before = after;
  Result<ShardResult> cold =
      fleet->ExecuteStatement(ShardStatement::Select(uncovered));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  after = fleet->FleetCounters();
  std::vector<GlobalRid> cold_rids = cold->rids;
  std::vector<GlobalRid> warm_rids = warm->rids;
  std::sort(cold_rids.begin(), cold_rids.end());
  std::sort(warm_rids.begin(), warm_rids.end());
  EXPECT_EQ(cold_rids, warm_rids);
  EXPECT_GT(cold->stats.partitions_promoted, 0u);
  EXPECT_EQ(static_cast<int64_t>(cold->stats.partitions_promoted),
            CounterDelta(before, after, kMetricColdPartitionsPromoted));
}

}  // namespace
}  // namespace aib
