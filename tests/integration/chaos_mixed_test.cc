// Chaos with writers in the mix: the 10k-query soak of chaos_soak_test.cc
// extended with a concurrent DML stream under the same seeded faults. The
// writers operate in a value band disjoint from every read query, so the
// fault-free read oracle built before the chaos stays valid to the bit —
// any cross-contamination (a lost counter update, a stale buffer entry, a
// torn relocation) shows up as a wrong read answer, a wrong final band
// state, or a failed consistency check.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "core/consistency.h"
#include "service/query_service.h"
#include "storage/fault_injector.h"

namespace aib {
namespace {

using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::MakeTuple;
using ::aib::testing::Sorted;

/// The read side: identical shape to the pure-read soak — covered points,
/// uncovered points, boundary-straddling ranges — every value <= 45, far
/// below the writers' [500, 600] band.
std::vector<Query> MakeReadWorkload(size_t count) {
  std::vector<Query> queries;
  queries.reserve(count);
  uint64_t state = 0xfeedfacecafe1234ull;
  for (size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t r = static_cast<uint32_t>(state >> 33);
    const ColumnId column = static_cast<ColumnId>(r % 2);
    const uint32_t kind = (r / 2) % 10;
    if (kind < 3) {
      queries.push_back(Query::Point(column, 1 + (r % 30)));
    } else if (kind < 9) {
      queries.push_back(Query::Point(column, 31 + (r % 270)));
    } else {
      const Value lo = 25 + (r % 10);
      queries.push_back(Query::Range(column, lo, lo + 10));
    }
  }
  return queries;
}

TEST(ChaosMixedTest, SoakWithWritersMatchesFaultFreeOracle) {
  constexpr size_t kQueries = 10000;
  constexpr size_t kWrites = 600;
  constexpr Value kBandLo = 500;
  constexpr Value kBandHi = 600;

  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 4000;
  options.space.max_pages_per_scan = 40;
  options.buffer_pool_pages = 16;  // keep fetches on the faulty disk path
  auto db = MakeSmallPaperDb(1000, 300, 30, options);
  ASSERT_NE(db, nullptr);

  // Fault-free read oracle, taken before any fault or writer runs. Valid
  // throughout because the writers never touch values below kBandLo.
  std::map<std::pair<ColumnId, Value>, std::vector<Rid>> truth;
  const Schema& schema = db->table().schema();
  ASSERT_TRUE(db->table()
                  .heap()
                  .ForEachTuple([&](const Rid& rid, const Tuple& tuple) {
                    for (ColumnId c = 0; c < 2; ++c) {
                      truth[{c, tuple.IntValue(schema, c)}].push_back(rid);
                    }
                  })
                  .ok());
  auto expected_for = [&](const Query& query) {
    std::vector<Rid> rids;
    for (Value v = query.lo; v <= query.hi; ++v) {
      auto it = truth.find({query.column, v});
      if (it == truth.end()) continue;
      rids.insert(rids.end(), it->second.begin(), it->second.end());
    }
    return Sorted(std::move(rids));
  };

  FaultInjectorOptions fault_options;
  fault_options.seed = 2027;
  fault_options.read_fault_rate = 0.006;
  fault_options.write_fault_rate = 0.006;
  fault_options.corruption_fraction = 0.8;
  fault_options.latency_rate = 0.01;
  FaultInjector& injector = db->catalog().disk().fault_injector();
  injector.Arm(fault_options);

  QueryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 128;
  service_options.max_query_retries = 6;
  QueryService service(db->executor(), service_options);

  // The serialized writer stream: inserts, updates, and deletes confined
  // to the band, applied one at a time so the applied-ops model below is
  // exact. `applied` mirrors what must be live at the end.
  std::vector<std::pair<Rid, std::vector<Value>>> applied;
  std::thread writer([&] {
    auto execute = [&](const Statement& statement) {
      for (;;) {
        Result<StatementResult> result = service.ExecuteStatement(statement);
        if (result.ok() || !result.status().IsBusy()) return result;
        std::this_thread::yield();
      }
    };
    Rng rng(4242);
    for (size_t op = 0; op < kWrites; ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      auto band_values = [&] {
        return std::vector<Value>{
            static_cast<Value>(rng.UniformInt(kBandLo, kBandHi)),
            static_cast<Value>(rng.UniformInt(kBandLo, kBandHi)),
            static_cast<Value>(rng.UniformInt(kBandLo, kBandHi))};
      };
      if (kind < 5 || applied.empty()) {
        const std::vector<Value> values = band_values();
        Result<StatementResult> result = execute(Statement::Insert(
            Tuple(values, {std::string(1 + op % 50, 'b')})));
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (result.ok()) applied.emplace_back(result->rids.front(), values);
      } else if (kind < 8) {
        const size_t pick =
            static_cast<size_t>(rng.UniformInt(0, applied.size() - 1));
        const std::vector<Value> values = band_values();
        Result<StatementResult> result =
            execute(Statement::Update(applied[pick].first,
                                      Tuple(values, {std::string(
                                                        1 + op % 50, 'b')})));
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (result.ok()) applied[pick] = {result->rids.front(), values};
      } else {
        const size_t pick =
            static_cast<size_t>(rng.UniformInt(0, applied.size() - 1));
        Result<StatementResult> result =
            execute(Statement::Delete(applied[pick].first));
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (result.ok()) {
          applied[pick] = applied.back();
          applied.pop_back();
        }
      }
    }
  });

  std::vector<std::pair<size_t, std::future<Result<StatementResult>>>> futures;
  futures.reserve(kQueries);
  const std::vector<Query> workload = MakeReadWorkload(kQueries);
  for (size_t i = 0; i < workload.size(); ++i) {
    for (;;) {
      Result<std::future<Result<StatementResult>>> submitted =
          service.Submit(Statement::Select(workload[i]));
      if (submitted.ok()) {
        futures.emplace_back(i, std::move(submitted).value());
        break;
      }
      ASSERT_TRUE(submitted.status().IsBusy());
      std::this_thread::yield();
    }
  }

  for (auto& [index, future] : futures) {
    Result<StatementResult> result = future.get();
    ASSERT_TRUE(result.ok())
        << "query " << index << ": " << result.status().ToString();
    EXPECT_EQ(Sorted(result->rids), expected_for(workload[index]))
        << "query " << index;
  }
  writer.join();
  service.Shutdown();

  EXPECT_EQ(db->metrics().Get(kMetricDmlStatements),
            static_cast<int64_t>(kWrites));
  EXPECT_EQ(db->metrics().Get(kMetricServiceExecuted),
            static_cast<int64_t>(kQueries + kWrites));  // no hangs
  EXPECT_GT(db->metrics().Get(kMetricFaultsInjected), 0);

  injector.Disarm();

  // Final band state must equal the applied-ops model exactly: every
  // surviving writer tuple present once at its final rid, nothing else in
  // the band.
  std::map<std::pair<ColumnId, Value>, std::vector<Rid>> band_model;
  for (const auto& [rid, values] : applied) {
    for (ColumnId c = 0; c < 3; ++c) {
      band_model[{c, values[c]}].push_back(rid);
    }
  }
  for (ColumnId c = 0; c < 3; ++c) {
    for (Value v = kBandLo; v <= kBandHi; ++v) {
      std::vector<Rid> expected;
      auto it = band_model.find({c, v});
      if (it != band_model.end()) expected = Sorted(it->second);
      EXPECT_EQ(Sorted(GroundTruth(*db, c, v, v)), expected)
          << "col " << c << " value " << v;
    }
  }
  ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());
}

}  // namespace
}  // namespace aib
