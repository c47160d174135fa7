#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/consistency.h"
#include "shard/sharded_database.h"

namespace aib {
namespace {

// Fleet fault tolerance acceptance: whole-shard outages (crash, hang,
// brownout), the per-shard circuit breakers they trip and fail fast on,
// hedged legs, and shard restarts that stay bit-identical to a
// never-crashed twin.

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr Value kLoadLo = 1;
constexpr Value kLoadHi = 2000;
constexpr size_t kRows = 300;
constexpr size_t kShards = 4;

Schema TestSchema() { return Schema::PaperSchema(2, 16); }

ShardedDatabaseOptions FleetOptions() {
  ShardedDatabaseOptions options;
  options.router.num_shards = kShards;
  options.router.policy = ShardingPolicy::kHash;
  options.router.routing_column = 0;
  options.router.range_min = kLoadLo;
  options.router.range_max = kLoadHi;
  options.shard.db.max_tuples_per_page = 8;
  options.shard.db.space.max_entries = 2000;
  options.shard.db.space.max_pages_per_scan = 20;
  options.shard.service.num_workers = 1;  // deterministic per-shard FIFO
  // Keep Busy backoff tight so tests never sleep long.
  options.tolerance.busy_backoff.base = microseconds{50};
  options.tolerance.busy_backoff.cap = microseconds{2000};
  return options;
}

void Provision(ShardedDatabase* target) {
  Rng rng(424242);
  for (size_t i = 0; i < kRows; ++i) {
    const Value a = static_cast<Value>(rng.UniformInt(kLoadLo, kLoadHi));
    const Value b = static_cast<Value>(rng.UniformInt(kLoadLo, kLoadHi));
    ASSERT_TRUE(target->LoadTuple(Tuple({a, b}, {"row"})).ok());
  }
  ASSERT_TRUE(
      target->CreatePartialIndex(0, ValueCoverage::Range(1, 200)).ok());
}

std::unique_ptr<ShardedDatabase> MakeFleet(
    ShardedDatabaseOptions options = FleetOptions()) {
  auto fleet = std::make_unique<ShardedDatabase>(TestSchema(), options);
  Provision(fleet.get());
  return fleet;
}

/// A routing value owned by `shard` (hash policy, routing column 0).
Value ValueOwnedBy(const ShardedDatabase& fleet, size_t shard) {
  for (Value v = kLoadLo; v <= kLoadHi; ++v) {
    if (fleet.router().ShardForValue(v) == shard) return v;
  }
  ADD_FAILURE() << "no value routes to shard " << shard;
  return kLoadLo;
}

/// Drives the crashed shard's breaker open: statements routed at it fail
/// (feeding the window) until the trip, then fail fast.
void OpenBreakerViaCrash(ShardedDatabase* fleet, size_t shard) {
  fleet->fault_injector().Crash(shard);
  const Value victim = ValueOwnedBy(*fleet, shard);
  for (int i = 0; i < 5 && fleet->health().state(shard) != BreakerState::kOpen;
       ++i) {
    (void)fleet->ExecuteStatement(
        ShardStatement::Select(Query::Point(0, victim)));
  }
  ASSERT_EQ(fleet->health().state(shard), BreakerState::kOpen);
}

const Query kScatterAll = Query::Range(1, kLoadLo, kLoadHi);

TEST(FleetChaosTest, CrashedShardFailsFastWithAnnotatedStatus) {
  auto fleet = MakeFleet();
  const size_t crashed = 2;
  fleet->fault_injector().Crash(crashed);
  const Value victim = ValueOwnedBy(*fleet, crashed);

  Result<ShardResult> doomed =
      fleet->ExecuteStatement(ShardStatement::Select(Query::Point(0, victim)));
  ASSERT_FALSE(doomed.ok());
  EXPECT_TRUE(doomed.status().IsIoError()) << doomed.status().ToString();
  const std::string message = doomed.status().ToString();
  EXPECT_NE(message.find("shard " + std::to_string(crashed)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("crashed (injected)"), std::string::npos) << message;
  EXPECT_NE(message.find("attempts=4"), std::string::npos) << message;

  // Healthy-routed statements are untouched by the outage.
  size_t healthy = (crashed + 1) % kShards;
  Result<ShardResult> fine = fleet->ExecuteStatement(
      ShardStatement::Select(Query::Point(0, ValueOwnedBy(*fleet, healthy))));
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();

  const auto counters = fleet->FleetCounters();
  EXPECT_EQ(counters.at(kMetricShardCrashRejects), 4);
  EXPECT_EQ(counters.at(kMetricShardOutagesArmed), 1);

  // One more statement records the fifth consecutive failure and trips
  // the breaker; from then on the statement fails fast with Unavailable
  // and the precise per-shard annotation.
  Result<ShardResult> tripped =
      fleet->ExecuteStatement(ShardStatement::Select(Query::Point(0, victim)));
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(fleet->health().state(crashed), BreakerState::kOpen);
  Result<ShardResult> refused =
      fleet->ExecuteStatement(ShardStatement::Select(Query::Point(0, victim)));
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("breaker=open"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_GT(fleet->FleetCounters().at(kMetricShardBreakerFastFails), 0);
}

TEST(FleetChaosTest, OpenCircuitScatterFailsFast) {
  ShardedDatabaseOptions options = FleetOptions();
  // A probe window long enough that the breaker stays open for the whole
  // test.
  options.tolerance.breaker.probe_backoff.base = microseconds{10000000};
  auto fleet = MakeFleet(options);
  const size_t crashed = 1;
  OpenBreakerViaCrash(fleet.get(), crashed);

  // A scatter touching the open-circuit shard fails fast with the
  // per-shard status; a fleet answer never silently misses a shard.
  Result<ShardResult> refused =
      fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();

  // Healthy-pruned statements never consult the crashed shard at all.
  Result<ShardResult> routed =
      fleet->ExecuteStatement(ShardStatement::Select(
          Query::Point(0, ValueOwnedBy(*fleet, (crashed + 1) % kShards))));
  EXPECT_TRUE(routed.ok()) << routed.status().ToString();
}

TEST(FleetChaosTest, HangRespectsStatementDeadline) {
  auto fleet = MakeFleet();
  const size_t hung = 3;
  fleet->fault_injector().Hang(hung);
  ShardSubmitOptions submit;
  submit.deadline = milliseconds{100};
  const auto start = std::chrono::steady_clock::now();
  Result<ShardResult> timed_out = fleet->ExecuteStatement(
      ShardStatement::Select(Query::Point(0, ValueOwnedBy(*fleet, hung))),
      submit);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsTimeout())
      << timed_out.status().ToString();
  // Fail-fast bound: the deadline, not a retry ladder, decides when the
  // statement returns.
  EXPECT_LT(waited, milliseconds{5000});
  fleet->fault_injector().Revive(hung);
  Result<ShardResult> revived = fleet->ExecuteStatement(
      ShardStatement::Select(Query::Point(0, ValueOwnedBy(*fleet, hung))),
      submit);
  EXPECT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_GT(fleet->FleetCounters().at(kMetricShardHangWaits), 0);
}

TEST(FleetChaosTest, HedgedLegsDispatchWithinBudget) {
  ShardedDatabaseOptions options = FleetOptions();
  // A zero hedge delay turns every leg into a hedge candidate — this
  // exercises the duplicate-dispatch plumbing deterministically rather
  // than relying on a genuinely slow shard.
  options.tolerance.breaker.hedge_default = microseconds{0};
  options.tolerance.breaker.hedge_floor = microseconds{0};
  options.tolerance.hedge_budget = 2;
  auto fleet = MakeFleet(options);

  Result<ShardResult> baseline =
      fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
  ASSERT_TRUE(baseline.ok());

  Result<ShardResult> hedged =
      fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
  ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();
  EXPECT_GE(hedged->legs_hedged, 1u);
  EXPECT_LE(hedged->legs_hedged, 2u) << "hedge budget exceeded";
  EXPECT_LE(hedged->hedge_wins, hedged->legs_hedged);
  // A hedged gather returns exactly what the unhedged one did — the
  // duplicate races the same statement on the same shard.
  EXPECT_EQ(hedged->rids, baseline->rids);
  EXPECT_GT(fleet->FleetCounters().at(kMetricShardLegsHedged), 0);
}

TEST(FleetChaosTest, DmlHonorsStatementDeadlineUnderBrownout) {
  auto fleet = MakeFleet();
  const size_t slow = 1;
  const Value owned = ValueOwnedBy(*fleet, slow);
  Result<ShardResult> before =
      fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Every dispatch to the slow shard stalls 2s in the outage gate, a
  // hundred times the statements' 20ms budget. The gate must give up when
  // the budget is spent, not when the delay ends.
  BrownoutOptions brownout;
  brownout.latency_rate = 1.0;
  brownout.latency = milliseconds{2000};
  fleet->fault_injector().Brownout(slow, brownout);
  ShardSubmitOptions submit;
  submit.deadline = milliseconds{20};

  auto start = std::chrono::steady_clock::now();
  Result<ShardResult> insert = fleet->ExecuteStatement(
      ShardStatement::Insert(Tuple({owned, 1}, {"row"})), submit);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds{1000});
  ASSERT_FALSE(insert.ok());
  EXPECT_TRUE(insert.status().IsTimeout()) << insert.status().ToString();
  start = std::chrono::steady_clock::now();
  Result<ShardResult> select = fleet->ExecuteStatement(
      ShardStatement::Select(Query::Point(0, owned)), submit);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds{1000});
  ASSERT_FALSE(select.ok());
  EXPECT_TRUE(select.status().IsTimeout()) << select.status().ToString();

  fleet->fault_injector().Revive(slow);
  Result<ShardResult> after =
      fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rids.size(), before->rids.size())
      << "a timed-out insert must not land";
}

TEST(FleetChaosTest, DmlOnCrashedOwnerFailsFastAndRecoversAfterRevive) {
  ShardedDatabaseOptions options = FleetOptions();
  // A fixed probe delay: long enough that the breaker stays open while the
  // fail-fast checks run, short enough to wait out after the revive.
  options.tolerance.breaker.probe_backoff.base = microseconds{500000};
  options.tolerance.breaker.probe_backoff.jitter = 0.0;
  auto fleet = MakeFleet(options);
  const size_t crashed = 2;
  const Value victim = ValueOwnedBy(*fleet, crashed);
  const auto row_count = [&] {
    Result<ShardResult> all =
        fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
    EXPECT_TRUE(all.ok()) << all.status().ToString();
    return all.ok() ? all->rids.size() : 0;
  };
  Result<ShardResult> first = fleet->ExecuteStatement(
      ShardStatement::Insert(Tuple({victim, 1}, {"row"})));
  Result<ShardResult> second = fleet->ExecuteStatement(
      ShardStatement::Insert(Tuple({victim, 2}, {"row"})));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const size_t rows = row_count();

  fleet->fault_injector().Crash(crashed);
  const std::vector<ShardStatement> dml = {
      ShardStatement::Insert(Tuple({victim, 3}, {"row"})),
      ShardStatement::Update(first->rids.at(0), Tuple({victim, 4}, {"row"})),
      ShardStatement::Delete(second->rids.at(0)),
  };
  // The insert burns its four attempts on crash rejects; the update's
  // first reject is the fifth in a row and trips the breaker, so its
  // retry and the delete fail fast.
  for (const ShardStatement& statement : dml) {
    Result<ShardResult> result = fleet->ExecuteStatement(statement);
    ASSERT_FALSE(result.ok());
    const std::string message = result.status().ToString();
    EXPECT_TRUE(result.status().IsIoError() ||
                result.status().IsUnavailable())
        << message;
    EXPECT_NE(message.find("shard " + std::to_string(crashed) + ": "),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("(attempts="), std::string::npos) << message;
    EXPECT_NE(message.find(", breaker="), std::string::npos) << message;
  }
  ASSERT_EQ(fleet->health().state(crashed), BreakerState::kOpen);

  // Open breaker: the ladder refuses without dispatching — no crash
  // reject is drawn.
  const ShardStatement next =
      ShardStatement::Insert(Tuple({victim, 5}, {"row"}));
  const int64_t rejects = fleet->FleetCounters().at(kMetricShardCrashRejects);
  Result<ShardResult> refused = fleet->ExecuteStatement(next);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("attempts=1, breaker=open"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(fleet->FleetCounters().at(kMetricShardCrashRejects), rejects);

  // Revive and sleep past the probe delay (the breaker opened before
  // now, so the probe is due by then): the next DML takes the half-open
  // probe slot, succeeds, and closes the breaker.
  fleet->fault_injector().Revive(crashed);
  std::this_thread::sleep_for(fleet->health().snapshot(crashed).probe_delay +
                              milliseconds{1});
  Result<ShardResult> probe = fleet->ExecuteStatement(next);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(fleet->health().state(crashed), BreakerState::kClosed);
  ASSERT_TRUE(fleet->ExecuteStatement(dml[1]).ok());
  ASSERT_TRUE(fleet->ExecuteStatement(dml[2]).ok());
  // Nothing the failed statements attempted landed: one insert and one
  // delete since the crash.
  EXPECT_EQ(row_count(), rows);
}

TEST(FleetChaosTest, StalledLegDoesNotChargeLaterShards) {
  // A hang and a brownout delay each spend the whole budget on shard 1 of
  // 4. The gather stops there: shards 2 and 3 are never dispatched, so
  // their breakers see nothing of shard 1's outage.
  for (const bool hang : {true, false}) {
    auto fleet = MakeFleet();
    const size_t stalled = 1;
    if (hang) {
      fleet->fault_injector().Hang(stalled);
    } else {
      BrownoutOptions brownout;
      brownout.latency_rate = 1.0;
      brownout.latency = milliseconds{60};
      fleet->fault_injector().Brownout(stalled, brownout);
    }
    ShardSubmitOptions submit;
    submit.deadline = milliseconds{20};
    for (int i = 0; i < 6; ++i) {
      Result<ShardResult> result =
          fleet->ExecuteStatement(ShardStatement::Select(kScatterAll), submit);
      ASSERT_FALSE(result.ok());
      // Timeouts until shard 1's breaker opens, fail-fast after.
      EXPECT_TRUE(result.status().IsTimeout() ||
                  result.status().IsUnavailable())
          << result.status().ToString();
    }
    EXPECT_EQ(fleet->health().state(stalled), BreakerState::kOpen)
        << (hang ? "hang" : "brownout");
    for (const size_t healthy : {size_t{0}, size_t{2}, size_t{3}}) {
      EXPECT_EQ(fleet->health().state(healthy), BreakerState::kClosed)
          << (hang ? "hang" : "brownout") << ", shard " << healthy;
    }
    fleet->fault_injector().Revive(stalled);
  }
}

TEST(FleetChaosTest, CallerCancelReachesRunningLegs) {
  auto fleet = MakeFleet();
  const size_t blocked = 2;
  const Value owned = ValueOwnedBy(*fleet, blocked);
  Result<ShardResult> before =
      fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  Shard& node = fleet->shard(blocked);

  // Runs `statement` while the blocked shard's statement membrane is held
  // exclusively, so its leg is dispatched and parked in the shard worker;
  // cancels the caller's token there, then lets the leg go on.
  const auto cancel_mid_leg = [&](const ShardStatement& statement) {
    ShardSubmitOptions submit;
    submit.cancel = MakeCancelToken();
    Result<ShardResult> result = Status::Internal("not run");
    std::unique_lock<std::shared_mutex> quiesce(
        node.db().executor()->statement_latch());
    const int64_t submitted = node.metrics().Get(kMetricServiceSubmitted);
    std::thread caller(
        [&] { result = fleet->ExecuteStatement(statement, submit); });
    const auto give_up = std::chrono::steady_clock::now() + milliseconds{5000};
    while (node.metrics().Get(kMetricServiceSubmitted) == submitted &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(milliseconds{1});
    }
    std::this_thread::sleep_for(milliseconds{10});
    submit.cancel->store(true, std::memory_order_relaxed);
    std::this_thread::sleep_for(milliseconds{20});
    quiesce.unlock();
    caller.join();
    return result;
  };

  Result<ShardResult> insert =
      cancel_mid_leg(ShardStatement::Insert(Tuple({owned, 1}, {"row"})));
  ASSERT_FALSE(insert.ok());
  EXPECT_TRUE(insert.status().IsCancelled()) << insert.status().ToString();
  Result<ShardResult> scatter =
      cancel_mid_leg(ShardStatement::Select(kScatterAll));
  ASSERT_FALSE(scatter.ok());
  EXPECT_TRUE(scatter.status().IsCancelled()) << scatter.status().ToString();

  // A cancel is the caller's decision, not the shard's health.
  EXPECT_EQ(fleet->health().state(blocked), BreakerState::kClosed);
  Result<ShardResult> after =
      fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rids.size(), before->rids.size())
      << "a cancelled insert must not land";
}

TEST(FleetChaosTest, MigratingUpdateKeepsRowPastTightDeadline) {
  auto fleet = MakeFleet();
  const size_t from = 0;
  const size_t to = 3;
  // Column 1 carries a marker no provisioned row has.
  constexpr Value kMarker = kLoadHi + 7;
  Result<ShardResult> placed = fleet->ExecuteStatement(ShardStatement::Insert(
      Tuple({ValueOwnedBy(*fleet, from), kMarker}, {"row"})));
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  ASSERT_EQ(placed->rids.at(0).shard, from);

  // The new owner stalls 60ms in the outage gate, three times the
  // update's budget; the delete on the old owner is quick.
  BrownoutOptions brownout;
  brownout.latency_rate = 1.0;
  brownout.latency = milliseconds{60};
  fleet->fault_injector().Brownout(to, brownout);
  ShardSubmitOptions submit;
  submit.deadline = milliseconds{20};
  Result<ShardResult> moved = fleet->ExecuteStatement(
      ShardStatement::Update(placed->rids.at(0),
                             Tuple({ValueOwnedBy(*fleet, to), kMarker},
                                   {"row"})),
      submit);
  fleet->fault_injector().Revive(to);
  // Once the delete committed, the insert ran to its own outcome rather
  // than drop the row on the spent budget.
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(moved->legs, 2u);
  Result<ShardResult> found = fleet->ExecuteStatement(
      ShardStatement::Select(Query::Point(1, kMarker)));
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_EQ(found->rids.size(), 1u) << "the migrated row must exist once";
  EXPECT_EQ(found->rids[0].shard, to);
}

TEST(FleetChaosTest, WarmRestartMatchesNeverCrashedTwin) {
  auto subject = MakeFleet();
  auto twin = MakeFleet();

  // Identical DML phase on both fleets before any outage.
  const auto mutate = [](ShardedDatabase* fleet) {
    std::vector<GlobalRid> inserted;
    for (Value v = 300; v < 340; ++v) {
      Result<ShardResult> result = fleet->ExecuteStatement(
          ShardStatement::Insert(Tuple({v, v + 1}, {"row"})));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      inserted.push_back(result->rids.at(0));
    }
    for (size_t i = 0; i < inserted.size(); i += 4) {
      ASSERT_TRUE(
          fleet->ExecuteStatement(ShardStatement::Delete(inserted[i])).ok());
    }
    for (size_t i = 1; i < inserted.size(); i += 4) {
      ASSERT_TRUE(fleet
                      ->ExecuteStatement(ShardStatement::Update(
                          inserted[i],
                          Tuple({static_cast<Value>(1500 + i), 7}, {"row"})))
                      .ok());
    }
  };
  mutate(subject.get());
  mutate(twin.get());

  // Holes on the shard about to crash, a high page's before a low page's:
  // the inserts after the restart must fill them exactly as the twin does.
  const size_t crashed = 2;
  const auto punch_holes = [crashed](ShardedDatabase* fleet) {
    const Table& table = fleet->shard(crashed).db().table();
    const size_t pages = table.PageCount();
    ASSERT_GE(pages, 4u);
    for (const size_t page : {pages - 2, size_t{1}}) {
      const PageId page_id = table.heap().PageIdAt(page);
      SlotId slot = 0;
      while (!table.Get(Rid{page_id, slot}).ok()) ++slot;
      ASSERT_TRUE(fleet
                      ->ExecuteStatement(ShardStatement::Delete(GlobalRid{
                          static_cast<uint32_t>(crashed), Rid{page_id, slot}}))
                      .ok());
    }
  };
  punch_holes(subject.get());
  punch_holes(twin.get());

  // Outage on the subject only: crash, a few doomed statements, restart.
  subject->fault_injector().Crash(crashed);
  const Value victim = ValueOwnedBy(*subject, crashed);
  for (int i = 0; i < 3; ++i) {
    Result<ShardResult> doomed = subject->ExecuteStatement(
        ShardStatement::Select(Query::Point(0, victim)));
    EXPECT_FALSE(doomed.ok());
  }
  ASSERT_TRUE(subject->RestartShard(crashed).ok());
  EXPECT_EQ(subject->fault_injector().outage(crashed), ShardOutage::kNone);
  EXPECT_EQ(subject->health().state(crashed), BreakerState::kClosed);
  EXPECT_EQ(subject->FleetCounters().at(kMetricShardRestarts), 1);
  // The restarted node comes back with fresh metrics and an empty Index
  // Buffer Space in both tiers (recovery-free).
  EXPECT_EQ(subject->shard(crashed).metrics().Get(kMetricServiceExecuted), 0);
  if (subject->shard(crashed).db().space() != nullptr) {
    EXPECT_EQ(subject->shard(crashed).db().space()->TotalEntries(), 0u);
    EXPECT_EQ(subject->shard(crashed).db().space()->ColdEntries(), 0u);
  }

  // Inserts routed at the restarted shard land where the twin's do: its
  // free-space list is rebuilt from the pages, as the twin's follows them.
  std::vector<Value> owned;
  for (Value v = kLoadLo; v <= kLoadHi && owned.size() < 4; ++v) {
    if (subject->router().ShardForValue(v) == crashed) owned.push_back(v);
  }
  ASSERT_EQ(owned.size(), 4u);
  for (const Value v : owned) {
    const Tuple tuple({v, 1700}, {"refill"});
    Result<ShardResult> mine =
        subject->ExecuteStatement(ShardStatement::Insert(tuple));
    Result<ShardResult> theirs =
        twin->ExecuteStatement(ShardStatement::Insert(tuple));
    ASSERT_TRUE(mine.ok()) << mine.status().ToString();
    ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
    EXPECT_EQ(mine->rids, theirs->rids);
  }

  // Bit-identical equivalence: heap placement is durable, so not just row
  // contents but the GlobalRids themselves must match the twin that never
  // crashed — for scatters and for statements routed at the restarted
  // shard alike.
  const std::vector<Query> probes = {
      kScatterAll,
      Query::Point(0, victim),
      Query::Range(0, 1, 200),
      Query::Range(0, 1490, 1560),
  };
  for (const Query& query : probes) {
    Result<ShardResult> on_subject =
        subject->ExecuteStatement(ShardStatement::Select(query));
    Result<ShardResult> on_twin =
        twin->ExecuteStatement(ShardStatement::Select(query));
    ASSERT_TRUE(on_subject.ok()) << on_subject.status().ToString();
    ASSERT_TRUE(on_twin.ok()) << on_twin.status().ToString();
    EXPECT_EQ(on_subject->rids, on_twin->rids);
  }
  // And the rows behind those rids are the same bytes.
  Result<ShardResult> all =
      subject->ExecuteStatement(ShardStatement::Select(kScatterAll));
  ASSERT_TRUE(all.ok());
  for (const GlobalRid& grid : all->rids) {
    Result<Tuple> mine = subject->FetchRow(grid);
    Result<Tuple> theirs = twin->FetchRow(grid);
    ASSERT_TRUE(mine.ok());
    ASSERT_TRUE(theirs.ok());
    EXPECT_EQ(mine->IntValue(subject->schema(), 0),
              theirs->IntValue(twin->schema(), 0));
    EXPECT_EQ(mine->IntValue(subject->schema(), 1),
              theirs->IntValue(twin->schema(), 1));
  }
}

// The heap's free-space list is derived state: a restarted shard rebuilds
// it from its pages, so its next inserts land in the holes the deletes
// before the restart left.
TEST(FleetChaosTest, RestartedShardReusesTheHolesOfDeletes) {
  ShardOptions options;
  options.db.max_tuples_per_page = 8;
  Shard shard(0, TestSchema(), options);
  for (Value v = 0; v < 80; ++v) {
    ASSERT_TRUE(shard.db().LoadTuple(Tuple({v, v}, {"row"})).ok());
  }
  ASSERT_TRUE(shard.db().CreatePartialIndex(0, ValueCoverage::Range(0, 20))
                  .ok());
  const std::vector<size_t> holes = {2, 6};
  for (const size_t page : holes) {
    const Rid victim{shard.db().table().heap().PageIdAt(page), 3};
    ASSERT_TRUE(shard.db().ExecuteStatement(Statement::Delete(victim)).ok());
  }
  const size_t pages = shard.db().table().PageCount();

  ASSERT_TRUE(shard.Restart().ok());
  Database& db = shard.db();
  for (const size_t page : holes) {
    Result<StatementResult> inserted = db.ExecuteStatement(Statement::Insert(
        Tuple({static_cast<Value>(1000 + page), 1}, {"new"})));
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    EXPECT_EQ(db.table().PageNumberOf(inserted->rids.front()).value(), page);
  }
  EXPECT_EQ(db.table().PageCount(), pages);
  ASSERT_NE(db.space(), nullptr);
  EXPECT_TRUE(CheckSpaceConsistency(db.table(), *db.space()).ok());
}

TEST(FleetChaosTest, RestartWhileHungRevivesInsteadOfDeadlocking) {
  auto fleet = MakeFleet();
  const size_t hung = 0;
  const Value victim = ValueOwnedBy(*fleet, hung);
  fleet->fault_injector().Hang(hung);
  std::atomic<bool> query_done{false};
  Status query_status = Status::Internal("not run");
  std::thread blocked([&] {
    // No deadline: this admit parks inside the injector until the restart
    // revives the shard.
    Result<ShardResult> result = fleet->ExecuteStatement(
        ShardStatement::Select(Query::Point(0, victim)));
    query_status = result.status();
    query_done.store(true);
  });
  std::this_thread::sleep_for(milliseconds{30});
  EXPECT_FALSE(query_done.load());
  // RestartShard revives first, so the parked admit drains against the
  // old incarnation and the exclusive restart latch can then be taken.
  ASSERT_TRUE(fleet->RestartShard(hung).ok());
  blocked.join();
  EXPECT_TRUE(query_status.ok()) << query_status.ToString();
  Result<ShardResult> after =
      fleet->ExecuteStatement(ShardStatement::Select(Query::Point(0, victim)));
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(FleetChaosTest, FaultScriptTraceHashReplays) {
  // A breaker that never trips: otherwise the brownout opens shard 2's
  // circuit after a few statements and later scatters fail fast without
  // consulting the injector, so extra statements would not extend the
  // trace.
  ShardedDatabaseOptions options = FleetOptions();
  options.tolerance.breaker.consecutive_failures = 1000000;
  options.tolerance.breaker.error_threshold = 1.1;
  const auto drive = [](ShardedDatabase* fleet, size_t extra) {
    fleet->fault_injector().Crash(1);
    const Value victim = ValueOwnedBy(*fleet, 1);
    for (int i = 0; i < 2; ++i) {
      (void)fleet->ExecuteStatement(
          ShardStatement::Select(Query::Point(0, victim)));
    }
    fleet->fault_injector().Revive(1);
    BrownoutOptions brownout;
    brownout.error_rate = 0.4;
    fleet->fault_injector().Brownout(2, brownout);
    for (size_t i = 0; i < 6 + extra; ++i) {
      (void)fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
    }
    fleet->fault_injector().Revive(2);
  };
  auto a = MakeFleet(options);
  auto b = MakeFleet(options);
  drive(a.get(), 0);
  drive(b.get(), 0);
  EXPECT_EQ(a->fault_injector().TraceHash(), b->fault_injector().TraceHash())
      << "same seed + same statement sequence must replay bit-identically";
  auto c = MakeFleet(options);
  drive(c.get(), 2);
  EXPECT_NE(a->fault_injector().TraceHash(), c->fault_injector().TraceHash());
}

TEST(FleetChaosTest, ConcurrentOutagesAndRestartsStayCoherent) {
  ShardedDatabaseOptions options = FleetOptions();
  options.shard.service.num_workers = 2;
  auto fleet = MakeFleet(options);
  constexpr size_t kThreads = 4;
  constexpr size_t kStatementsPerThread = 40;
  std::atomic<size_t> succeeded{0};
  std::atomic<size_t> failed{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (size_t i = 0; i < kStatementsPerThread; ++i) {
        ShardSubmitOptions submit;
        submit.deadline = milliseconds{2000};
        const Value v =
            static_cast<Value>(rng.UniformInt(kLoadLo, kLoadHi));
        Result<ShardResult> result =
            (i % 3) == 0
                ? fleet->ExecuteStatement(
                    ShardStatement::Select(Query::Range(1, v, v + 50)), submit)
                : fleet->ExecuteStatement(
                    ShardStatement::Select(Query::Point(0, v)), submit);
        if (result.ok()) {
          succeeded.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  // The chaos loop: outages, revivals, and restarts under load.
  const size_t chaos_shard = 1;
  for (int round = 0; round < 6; ++round) {
    fleet->fault_injector().Crash(chaos_shard);
    std::this_thread::sleep_for(milliseconds{5});
    fleet->fault_injector().Revive(chaos_shard);
    BrownoutOptions brownout;
    brownout.error_rate = 0.2;
    brownout.latency_rate = 0.2;
    brownout.latency = microseconds{500};
    fleet->fault_injector().Brownout(chaos_shard, brownout);
    std::this_thread::sleep_for(milliseconds{5});
    ASSERT_TRUE(fleet->RestartShard(chaos_shard).ok());
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(succeeded.load() + failed.load(), kThreads * kStatementsPerThread);
  EXPECT_GT(succeeded.load(), 0u);
  // The fleet is coherent after the dust settles: every outage cleared,
  // a full scatter succeeds, and the restarted shard serves traffic.
  Result<ShardResult> final_scan =
      fleet->ExecuteStatement(ShardStatement::Select(kScatterAll));
  EXPECT_TRUE(final_scan.ok()) << final_scan.status().ToString();
}

}  // namespace
}  // namespace aib
