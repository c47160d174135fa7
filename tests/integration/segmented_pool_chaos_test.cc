// Chaos acceptance of a segmented (scan-resistant) buffer pool far smaller
// than the table: the same full-scan read workload must return
// bit-identical results serially (num_workers = 1), at shared-scan fan-in
// (num_workers = 4), and at fan-in with page-targeted read corruption
// armed. Targeted faults consume no Rng draws, so where they land does not
// depend on the worker interleaving.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "service/query_service.h"
#include "storage/fault_injector.h"
#include "workload/database.h"

namespace aib {
namespace {

using ::aib::testing::Sorted;

std::unique_ptr<Database> MakeSmallPoolDb(size_t num_tuples) {
  DatabaseOptions options;
  options.enable_index_buffer = false;
  options.max_tuples_per_page = 10;
  options.buffer_pool_pages = 16;
  auto db = std::make_unique<Database>(Schema::PaperSchema(1, 16), options);
  Rng rng(271828);
  for (size_t i = 0; i < num_tuples; ++i) {
    EXPECT_TRUE(db->LoadTuple(Tuple({static_cast<Value>(rng.UniformInt(1, 300))},
                                    {"pay"}))
                    .ok());
  }
  return db;
}

std::vector<Query> MakeWorkload(size_t count) {
  std::vector<Query> queries;
  queries.reserve(count);
  uint64_t state = 0xc0ffee1234567ull;
  for (size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t r = static_cast<uint32_t>(state >> 33);
    const Value lo = 1 + (r % 150);
    queries.push_back(Query::Range(0, lo, lo + 40 + (r % 120)));
  }
  return queries;
}

/// Runs the whole workload through a fresh QueryService and returns the
/// sorted rid set of each query, in workload order.
std::vector<std::vector<Rid>> RunLeg(Database* db,
                                     const std::vector<Query>& workload,
                                     size_t num_workers) {
  QueryServiceOptions options;
  options.num_workers = num_workers;
  options.queue_capacity = 64;
  options.max_query_retries = 6;  // absorbs the injected corruption
  QueryService service(db->executor(), options);
  std::vector<std::pair<size_t, std::future<Result<StatementResult>>>> futures;
  futures.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    for (;;) {
      Result<std::future<Result<StatementResult>>> submitted =
          service.Submit(Statement::Select(workload[i]));
      if (submitted.ok()) {
        futures.emplace_back(i, std::move(submitted).value());
        break;
      }
      EXPECT_TRUE(submitted.status().IsBusy());
      std::this_thread::yield();
    }
  }
  std::vector<std::vector<Rid>> rids(workload.size());
  for (auto& [index, future] : futures) {
    Result<StatementResult> result = future.get();
    EXPECT_TRUE(result.ok())
        << "query " << index << ": " << result.status().ToString();
    if (result.ok()) rids[index] = Sorted(result->rids);
  }
  service.Shutdown();
  return rids;
}

TEST(SegmentedPoolChaosTest, SerialAndFanInScansMatchOracleUnderPageFaults) {
  auto db = MakeSmallPoolDb(1000);
  const std::vector<Query> workload = MakeWorkload(32);

  // Oracle straight off the heap, before any service or fault runs.
  std::vector<std::vector<Rid>> oracle;
  oracle.reserve(workload.size());
  for (const Query& query : workload) {
    oracle.push_back(
        Sorted(::aib::testing::GroundTruth(*db, 0, query.lo, query.hi)));
  }

  // Leg 1: serial. Every answer matches the oracle.
  const std::vector<std::vector<Rid>> serial = RunLeg(db.get(), workload, 1);
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_EQ(serial[i], oracle[i]) << "serial query " << i;
  }

  // Leg 2: fan-in over the warm, adapted pool. Bit-identical to serial.
  const std::vector<std::vector<Rid>> parallel = RunLeg(db.get(), workload, 4);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "parallel query " << i;
  }

  // Leg 3: corruption targeted at specific heap pages. The query path that
  // hits one retries whole-query.
  FaultInjector& injector = db->catalog().disk().fault_injector();
  const size_t page_count = db->table().PageCount();
  ASSERT_GE(page_count, 8u);
  for (size_t p : {size_t{0}, page_count / 2, page_count - 1}) {
    injector.InjectPageFault(FaultOp::kRead, db->table().heap().PageIdAt(p),
                             FaultKind::kCorruption);
  }
  const std::vector<std::vector<Rid>> faulted = RunLeg(db.get(), workload, 4);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(faulted[i], serial[i]) << "faulted query " << i;
  }
  // The 16-frame pool cannot keep a 100-page table resident, so the scans
  // read the targeted pages from disk and trip their faults.
  EXPECT_GT(injector.faults_injected(), 0u);
  injector.Disarm();  // clears any targeted fault left unfired
}

}  // namespace
}  // namespace aib
