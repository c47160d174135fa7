// DML against the cold tier: Table I maintenance on demoted pages must
// patch the cold run in place (never leave coverage stale), verified
// against a twin database that executed the same statements with its
// partitions hot — plus a multi-threaded mixed read/write/tier-churn
// stress for TSan (`concurrency` label) where a tight entry budget keeps
// Algorithm 2 demoting and probes promoting mid-traffic.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "core/consistency.h"
#include "service/query_service.h"

namespace aib {
namespace {

using ::aib::testing::AffectedRid;
using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::MakeTuple;
using ::aib::testing::Sorted;

/// The deterministic ladder of the DML suites: 24 tuples, 4 per page (6
/// pages), col0 = 1..24 ascending, partial index on col0 covering [1,10].
/// Page p holds col0 values 4p+1..4p+4; partition_pages = 2 splits the
/// buffer into partitions {0,1}, {2,3}, {4,5}.
std::unique_ptr<Database> MakeLadderDb() {
  DatabaseOptions options;
  options.max_tuples_per_page = 4;
  options.buffer.partition_pages = 2;
  auto db = std::make_unique<Database>(Schema::PaperSchema(2, 256), options);
  for (Value v = 1; v <= 24; ++v) {
    EXPECT_TRUE(db->LoadTuple(Tuple({v, 100 + v}, {"p"})).ok());
  }
  EXPECT_TRUE(db->CreatePartialIndex(0, ValueCoverage::Range(1, 10)).ok());
  EXPECT_EQ(db->table().PageCount(), 6u);
  return db;
}

TEST(ColdDmlTest, DmlOnDemotedPagesMatchesHotTwin) {
  auto subject = MakeLadderDb();
  auto twin = MakeLadderDb();

  // Warm both identically (the first miss indexes values 11..24), then
  // demote the subject's partition 1 — pages 2 and 3, buffered values
  // 11..16. The twin keeps everything hot: it is the serial oracle.
  ASSERT_TRUE(
      subject->ExecuteStatement(Statement::Select(Query::Point(0, 20))).ok());
  ASSERT_TRUE(
      twin->ExecuteStatement(Statement::Select(Query::Point(0, 20))).ok());
  IndexBuffer* buffer = subject->GetBuffer(0);
  ASSERT_NE(buffer, nullptr);
  ASSERT_GT(buffer->DemotePartition(1), 0u);
  ASSERT_EQ(buffer->ColdPartitionCount(), 1u);

  // Delete from a demoted page (col0 = 11 at (2,2)): the cold run loses
  // the entry, the page stays covered.
  ASSERT_TRUE(subject->ExecuteStatement(Statement::Delete(Rid{2, 2})).ok());
  ASSERT_TRUE(twin->ExecuteStatement(Statement::Delete(Rid{2, 2})).ok());

  // In-place update on a demoted page (col0 = 13 -> 17 at (3,0)): a
  // remove+add patch pair against the run.
  const Statement update =
      Statement::Update(Rid{3, 0}, Tuple({17, 113}, {"p"}));
  ASSERT_TRUE(subject->ExecuteStatement(update).ok());
  ASSERT_TRUE(twin->ExecuteStatement(update).ok());

  // Relocating update off a demoted page (col0 = 14 at (3,1), fat
  // payload): the vacated page must stay fully indexed while the landing
  // page gains an unindexed tuple.
  const Tuple fat({14, 114}, {std::string(200, 'q')});
  Result<Rid> moved_subject =
      AffectedRid(subject->ExecuteStatement(Statement::Update(Rid{3, 1}, fat)));
  Result<Rid> moved_twin =
      AffectedRid(twin->ExecuteStatement(Statement::Update(Rid{3, 1}, fat)));
  ASSERT_TRUE(moved_subject.ok());
  ASSERT_TRUE(moved_twin.ok());
  EXPECT_EQ(moved_subject.value(), moved_twin.value());
  EXPECT_EQ(buffer->counters().Get(3), 0u);

  // The run was patched, not invalidated: the partition is still cold and
  // its pages still covered.
  EXPECT_EQ(buffer->ColdPartitionCount(), 1u);
  EXPECT_GT(subject->metrics().Get(kMetricColdEntriesPatched), 0);
  for (size_t page = 2; page <= 3; ++page) {
    EXPECT_EQ(buffer->counters().Get(page), 0u) << "page " << page;
  }

  // Every probe answers bit-identically to the hot twin and matches the
  // full-scan ground truth.
  for (Value v = 1; v <= 24; ++v) {
    Result<StatementResult> a =
        subject->ExecuteStatement(Statement::Select(Query::Point(0, v)));
    Result<StatementResult> b =
        twin->ExecuteStatement(Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->rids, b->rids) << "value " << v;
    EXPECT_EQ(Sorted(a->rids), Sorted(GroundTruth(*subject, 0, v, v)))
        << "value " << v;
  }
  ASSERT_TRUE(CheckSpaceConsistency(subject->table(), *subject->space()).ok());
  ASSERT_TRUE(CheckSpaceConsistency(twin->table(), *twin->space()).ok());
}

TEST(ColdDmlTest, MixedReadWriteStressWithTierChurn) {
  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  // A tight entry budget keeps Algorithm 2 displacing (demote mode) and
  // small partitions give it many victims, while probes promote runs back.
  options.space.max_entries = 400;
  options.space.max_pages_per_scan = 40;
  options.buffer.partition_pages = 8;
  auto db = MakeSmallPaperDb(1500, 300, 30, options);
  ASSERT_NE(db, nullptr);
  QueryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 64;
  QueryService service(db->executor(), service_options);

  auto execute_statement = [&](const Statement& statement) {
    while (true) {
      Result<StatementResult> result = service.ExecuteStatement(statement);
      if (result.ok() || !result.status().IsBusy()) return result;
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int writer = 0; writer < 3; ++writer) {
    threads.emplace_back([&, writer] {
      Rng rng(4000 + writer);
      std::vector<Rid> mine;  // rids only this thread targets
      for (int op = 0; op < 120; ++op) {
        const int kind = static_cast<int>(rng.UniformInt(0, 2));
        if (kind == 0 || mine.empty()) {
          const Tuple tuple =
              MakeTuple(static_cast<Value>(rng.UniformInt(1, 300)),
                        static_cast<Value>(rng.UniformInt(1, 300)),
                        static_cast<Value>(rng.UniformInt(1, 300)));
          Result<StatementResult> result =
              execute_statement(Statement::Insert(tuple));
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (result.ok()) mine.push_back(result->rids.front());
        } else if (kind == 1) {
          const size_t pick =
              static_cast<size_t>(rng.UniformInt(0, mine.size() - 1));
          const Value v = static_cast<Value>(rng.UniformInt(1, 300));
          const Tuple tuple = MakeTuple(v, 301 - v, v / 3 + 1,
                                        std::string(1 + v % 50, 'w'));
          Result<StatementResult> result =
              execute_statement(Statement::Update(mine[pick], tuple));
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (result.ok()) mine[pick] = result->rids.front();
        } else {
          const size_t pick =
              static_cast<size_t>(rng.UniformInt(0, mine.size() - 1));
          Result<StatementResult> result =
              execute_statement(Statement::Delete(mine[pick]));
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (result.ok()) {
            mine[pick] = mine.back();
            mine.pop_back();
          }
        }
      }
    });
  }
  for (int reader = 0; reader < 3; ++reader) {
    threads.emplace_back([&, reader] {
      Rng rng(5000 + reader);
      for (int op = 0; op < 200; ++op) {
        const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
        const Value lo = static_cast<Value>(rng.UniformInt(1, 290));
        const Query query = op % 4 == 0 ? Query::Range(column, lo, lo + 10)
                                        : Query::Point(column, lo);
        while (true) {
          Result<StatementResult> result =
              service.ExecuteStatement(Statement::Select(query));
          if (result.ok()) break;
          ASSERT_TRUE(result.status().IsBusy()) << result.status().ToString();
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // The churn actually exercised the two-tier machinery.
  EXPECT_GT(db->metrics().Get(kMetricColdPartitionsDemoted), 0);
  ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());

  // Settled probes against the post-stress ground truth.
  Rng rng(88);
  for (int probe = 0; probe < 30; ++probe) {
    const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
    const Value v = static_cast<Value>(rng.UniformInt(1, 300));
    Result<StatementResult> result =
        service.ExecuteStatement(Statement::Select(Query::Point(column, v)));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, column, v, v)));
  }
  EXPECT_GT(db->metrics().Get(kMetricDmlStatements), 0);
}

}  // namespace
}  // namespace aib
