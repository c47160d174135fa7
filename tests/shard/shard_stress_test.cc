#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "shard/sharded_database.h"

namespace aib {
namespace {

// Concurrent-client stress over a live shard fleet: each client thread
// drives its own sequential statement stream straight into the fleet (so
// victim rid bookkeeping needs no cross-thread coordination) while the
// scatter-gather and the shards' admission queues run concurrently. Built
// to be run under TSan (`ctest -L concurrency`).

constexpr size_t kClientThreads = 4;
constexpr size_t kOpsPerClient = 120;
constexpr Value kDomainHi = 4000;

std::unique_ptr<ShardedDatabase> MakeFleet() {
  ShardedDatabaseOptions options;
  options.router.num_shards = 4;
  options.router.policy = ShardingPolicy::kHash;
  options.router.routing_column = 0;
  options.shard.db.max_tuples_per_page = 8;
  options.shard.service.num_workers = 2;  // real concurrency inside shards
  auto fleet =
      std::make_unique<ShardedDatabase>(Schema::PaperSchema(1, 8), options);
  Rng rng(5);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(
        fleet
            ->LoadTuple(Tuple({static_cast<Value>(rng.UniformInt(1, kDomainHi))},
                              {"row"}))
            .ok());
  }
  EXPECT_TRUE(fleet->CreatePartialIndex(0, ValueCoverage::Range(1, 400)).ok());
  return fleet;
}

TEST(ShardStressTest, ConcurrentClientsKeepTheFleetConsistent) {
  auto fleet = MakeFleet();

  std::atomic<size_t> failures{0};
  std::atomic<int64_t> net_inserted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      // Per-client rng stream and private rid list: statements within a
      // client are sequential, clients overlap.
      Rng rng(100 + t);
      std::vector<GlobalRid> mine;
      for (size_t i = 0; i < kOpsPerClient; ++i) {
        const uint32_t dice = static_cast<uint32_t>(rng.UniformInt(0, 9));
        if (dice < 4) {  // read
          const Value v = static_cast<Value>(rng.UniformInt(1, kDomainHi));
          const bool routed = dice % 2 == 0;
          const Query query =
              routed ? Query::Point(0, v)
                     : Query::Range(0, std::max(1, v - 40), v);
          if (!fleet->ExecuteStatement(ShardStatement::Select(query)).ok()) {
            ++failures;
          }
        } else if (dice < 7 || mine.empty()) {  // insert
          const Value v = static_cast<Value>(rng.UniformInt(1, kDomainHi));
          auto result = fleet->ExecuteStatement(
              ShardStatement::Insert(Tuple({v}, {"row"})));
          if (result.ok()) {
            mine.push_back(result->rids.at(0));
            ++net_inserted;
          } else {
            ++failures;
          }
        } else if (dice < 9) {  // update my newest row (may migrate)
          const Value v = static_cast<Value>(rng.UniformInt(1, kDomainHi));
          auto result = fleet->ExecuteStatement(
              ShardStatement::Update(mine.back(), Tuple({v}, {"row"})));
          if (result.ok()) {
            mine.back() = result->rids.at(0);
          } else {
            ++failures;
          }
        } else {  // delete my newest row
          auto result =
              fleet->ExecuteStatement(ShardStatement::Delete(mine.back()));
          if (result.ok()) {
            mine.pop_back();
            --net_inserted;
          } else {
            ++failures;
          }
        }
      }
      // Every rid this client still owns must resolve to a live row.
      for (const GlobalRid& grid : mine) {
        if (!fleet->FetchRow(grid).ok()) ++failures;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);

  // Fleet-wide row count: initial load plus the surviving inserts.
  Result<ShardResult> all = fleet->ExecuteStatement(
      ShardStatement::Select(Query::Range(0, 1, kDomainHi)));
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->rids.size(),
            200 + static_cast<size_t>(net_inserted.load()));
}

TEST(ShardStressTest, CountersStayReadableWhileTrafficRuns) {
  auto fleet = MakeFleet();
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto counters = fleet->FleetCounters();  // concurrent MergeFrom
      EXPECT_GE(counters.size(), 0u);
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(t + 1);
      for (size_t i = 0; i < 150; ++i) {
        const Value v = static_cast<Value>(rng.UniformInt(1, kDomainHi));
        EXPECT_TRUE(fleet->ExecuteStatement(
            ShardStatement::Select(Query::Point(0, v))).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  reader.join();
}

TEST(ShardStressTest, ConcurrentCancellationIsClean) {
  auto fleet = MakeFleet();
  for (int round = 0; round < 20; ++round) {
    ShardSubmitOptions submit;
    submit.cancel = MakeCancelToken();
    std::thread canceller([token = submit.cancel] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * 7));
      token->store(true);
    });
    // Scatter query racing the cancel: either outcome is legal, crashes
    // and leaked legs are not.
    Result<ShardResult> result =
        fleet->ExecuteStatement(
            ShardStatement::Select(Query::Range(0, 1, kDomainHi)), submit);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsCancelled())
          << result.status().ToString();
    }
    canceller.join();
  }
}

}  // namespace
}  // namespace aib
