#include "workload/database.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/page_counters.h"
#include "workload/experiment.h"

namespace aib {
namespace {

using ::aib::testing::AffectedRid;
using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::MakeTuple;
using ::aib::testing::Sorted;

TEST(DatabaseTest, BuildPaperDatabaseShape) {
  auto db = MakeSmallPaperDb(500, 1000, 100);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->table().TupleCount(), 500u);
  EXPECT_GT(db->table().PageCount(), 1u);
  ASSERT_NE(db->GetIndex(0), nullptr);
  ASSERT_NE(db->GetIndex(1), nullptr);
  ASSERT_NE(db->GetIndex(2), nullptr);
  EXPECT_TRUE(db->GetIndex(0)->Covers(100));
  EXPECT_FALSE(db->GetIndex(0)->Covers(101));
}

TEST(DatabaseTest, CreatePartialIndexTwiceFails) {
  auto db = MakeSmallPaperDb(100, 1000, 100);
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->CreatePartialIndex(0, ValueCoverage::Range(1, 5))
                  .IsAlreadyExists());
}

TEST(DatabaseTest, MalformedRecordFailsCreatePartialIndexAsDeserializeDoes) {
  Database db(Schema::PaperSchema(2, 32));
  for (Value v = 0; v < 50; ++v) {
    ASSERT_TRUE(db.LoadTuple(Tuple({v, v}, {"p"})).ok());
  }
  // A live record with one trailing byte, written straight into the last
  // page: every column decodes, only the whole-record check rejects it.
  std::vector<uint8_t> record =
      Tuple({7, 7}, {"x"}).Serialize(db.table().schema());
  record.push_back(0xff);
  const PageId page_id =
      db.table().heap().PageIdAt(db.table().PageCount() - 1);
  Result<Page*> page = db.buffer_pool().FetchPage(page_id);
  ASSERT_TRUE(page.ok());
  SlotId slot;
  ASSERT_TRUE(page.value()->Insert(record, &slot).ok());
  ASSERT_TRUE(db.buffer_pool().UnpinPage(page_id, /*dirty=*/true).ok());
  const Status expected =
      Tuple::Deserialize(db.table().schema(), record).status();
  ASSERT_TRUE(expected.IsCorruption());

  const Status created = db.CreatePartialIndex(0, ValueCoverage::Range(0, 9));
  EXPECT_EQ(created.code(), expected.code());
  EXPECT_EQ(created.message(), expected.message());
  // The C[p] set-up pass reads records the same way.
  PartialIndex index(&db.table(), 1, ValueCoverage::Range(0, 9));
  PageCounters counters;
  const Status init = counters.InitFromTable(db.table(), index);
  EXPECT_EQ(init.code(), expected.code());
  EXPECT_EQ(init.message(), expected.message());
}

TEST(DatabaseTest, InsertMaintainsIndexes) {
  auto db = MakeSmallPaperDb(200, 1000, 100);
  ASSERT_NE(db, nullptr);
  // Covered on A (50), uncovered on B (500), uncovered on C (700).
  Result<Rid> rid = AffectedRid(
      db->ExecuteStatement(Statement::Insert(MakeTuple(50, 500, 700))));
  ASSERT_TRUE(rid.ok());
  Result<StatementResult> by_a =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 50)));
  ASSERT_TRUE(by_a.ok());
  EXPECT_EQ(Sorted(by_a->rids), Sorted(GroundTruth(*db, 0, 50, 50)));
  Result<StatementResult> by_b =
      db->ExecuteStatement(Statement::Select(Query::Point(1, 500)));
  ASSERT_TRUE(by_b.ok());
  EXPECT_EQ(Sorted(by_b->rids), Sorted(GroundTruth(*db, 1, 500, 500)));
}

TEST(DatabaseTest, DeleteMaintainsIndexes) {
  auto db = MakeSmallPaperDb(200, 1000, 100);
  ASSERT_NE(db, nullptr);
  Result<Rid> rid = AffectedRid(
      db->ExecuteStatement(Statement::Insert(MakeTuple(50, 500, 700))));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(db->ExecuteStatement(Statement::Delete(rid.value())).ok());
  Result<StatementResult> by_a =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 50)));
  ASSERT_TRUE(by_a.ok());
  for (const Rid& r : by_a->rids) EXPECT_NE(r, rid.value());
}

TEST(DatabaseTest, UpdateMaintainsIndexes) {
  auto db = MakeSmallPaperDb(200, 1000, 100);
  ASSERT_NE(db, nullptr);
  Result<Rid> rid = AffectedRid(
      db->ExecuteStatement(Statement::Insert(MakeTuple(50, 500, 700))));
  ASSERT_TRUE(rid.ok());
  Result<Rid> new_rid = AffectedRid(db->ExecuteStatement(
      Statement::Update(rid.value(), MakeTuple(60, 510, 710))));
  ASSERT_TRUE(new_rid.ok());
  Result<StatementResult> by_a =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 60)));
  ASSERT_TRUE(by_a.ok());
  EXPECT_EQ(Sorted(by_a->rids), Sorted(GroundTruth(*db, 0, 60, 60)));
  Result<StatementResult> old_a =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 50)));
  ASSERT_TRUE(old_a.ok());
  for (const Rid& r : old_a->rids) EXPECT_NE(r, new_rid.value());
}

TEST(DatabaseTest, DmlAfterBufferWarmupStaysConsistent) {
  auto db = MakeSmallPaperDb(400, 500, 50);
  ASSERT_NE(db, nullptr);
  // Warm the buffer on column A.
  for (Value v = 200; v < 210; ++v) {
    ASSERT_TRUE(
        db->ExecuteStatement(Statement::Select(Query::Point(0, v))).ok());
  }
  // DML against warm pages.
  Result<Rid> rid = AffectedRid(
      db->ExecuteStatement(Statement::Insert(MakeTuple(205, 205, 205))));
  ASSERT_TRUE(rid.ok());
  Result<StatementResult> result =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 205)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, 0, 205, 205)));

  ASSERT_TRUE(db->ExecuteStatement(Statement::Delete(rid.value())).ok());
  result = db->ExecuteStatement(Statement::Select(Query::Point(0, 205)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, 0, 205, 205)));
}

TEST(DatabaseTest, AttachTunerRequiresIndex) {
  auto db = MakeSmallPaperDb(100, 1000, 100);
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->AttachTuner(9, {}).IsNotFound());
  EXPECT_TRUE(db->AttachTuner(0, {}).ok());
  EXPECT_TRUE(db->AttachTuner(0, {}).IsAlreadyExists());
  EXPECT_NE(db->GetTuner(0), nullptr);
  EXPECT_EQ(db->GetTuner(1), nullptr);
}

TEST(DatabaseTest, TunerAdaptsThroughExecute) {
  auto db = MakeSmallPaperDb(300, 300, 30);
  ASSERT_NE(db, nullptr);
  IndexTunerOptions options;
  options.window_size = 20;
  options.index_threshold = 3;
  ASSERT_TRUE(db->AttachTuner(0, options).ok());
  ASSERT_FALSE(db->GetIndex(0)->Covers(200));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        db->ExecuteStatement(Statement::Select(Query::Point(0, 200))).ok());
  }
  EXPECT_TRUE(db->GetIndex(0)->Covers(200));
  // Results stay exact after adaptation.
  Result<StatementResult> result =
      db->ExecuteStatement(Statement::Select(Query::Point(0, 200)));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.used_partial_index);
  EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, 0, 200, 200)));
}

TEST(DatabaseTest, TunerAdaptationKeepsBufferCountersConsistent) {
  auto db = MakeSmallPaperDb(300, 300, 30);
  ASSERT_NE(db, nullptr);
  IndexTunerOptions options;
  options.index_threshold = 2;
  ASSERT_TRUE(db->AttachTuner(0, options).ok());
  // Warm buffer, then force adaptation of a value.
  for (Value v = 100; v < 105; ++v) {
    ASSERT_TRUE(
        db->ExecuteStatement(Statement::Select(Query::Point(0, v))).ok());
  }
  ASSERT_TRUE(
      db->ExecuteStatement(Statement::Select(Query::Point(0, 150))).ok());
  // Adapts 150.
  ASSERT_TRUE(
      db->ExecuteStatement(Statement::Select(Query::Point(0, 150))).ok());
  ASSERT_TRUE(db->GetIndex(0)->Covers(150));

  // Counter invariant across all pages.
  IndexBuffer* buffer = db->GetBuffer(0);
  ASSERT_NE(buffer, nullptr);
  const PartialIndex* index = db->GetIndex(0);
  for (size_t page = 0; page < db->table().PageCount(); ++page) {
    size_t expected = 0;
    ASSERT_TRUE(db->table()
                    .heap()
                    .ForEachTupleOnPage(
                        page,
                        [&](const Rid&, const Tuple& tuple) {
                          const Value v =
                              tuple.IntValue(db->table().schema(), 0);
                          if (!index->Covers(v) &&
                              !buffer->PageInBuffer(page)) {
                            ++expected;
                          }
                        })
                    .ok());
    EXPECT_EQ(buffer->counters().Get(page), expected) << "page " << page;
  }
}

TEST(DatabaseTest, FindRidsMatchesGroundTruth) {
  auto db = MakeSmallPaperDb(300, 100, 10);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Sorted(db->FindRids(0, 50)), Sorted(GroundTruth(*db, 0, 50, 50)));
}

TEST(DatabaseTest, RunWorkloadRecordsSeries) {
  auto db = MakeSmallPaperDb(300, 1000, 100);
  ASSERT_NE(db, nullptr);
  ColumnMix mix;
  mix.column = 0;
  mix.uncovered_lo = 101;
  mix.uncovered_hi = 1000;
  PhaseSpec phase;
  phase.num_queries = 10;
  phase.mix = {mix};
  WorkloadGenerator gen({phase}, 3);
  Result<std::vector<SeriesPoint>> series = RunWorkload(db.get(), &gen);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 10u);
  EXPECT_EQ(series->front().query_index, 0u);
  EXPECT_EQ(series->back().query_index, 9u);
  // Buffer entries grow as the index buffer fills.
  EXPECT_GE(series->back().buffer_entries[0],
            series->front().buffer_entries[0]);
}

}  // namespace
}  // namespace aib
