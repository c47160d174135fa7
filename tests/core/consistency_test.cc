#include "core/consistency.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace aib {
namespace {

using ::aib::testing::AffectedRid;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::MakeTuple;

class ConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.max_tuples_per_page = 10;
    options.buffer.partition_pages = 4;
    db_ = MakeSmallPaperDb(600, 400, 40, options);
    ASSERT_NE(db_, nullptr);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ConsistencyTest, FreshDatabaseIsConsistent) {
  EXPECT_TRUE(CheckSpaceConsistency(db_->table(), *db_->space()).ok());
}

TEST_F(ConsistencyTest, ConsistentAfterWarmup) {
  for (Value v = 100; v < 120; ++v) {
    ASSERT_TRUE(
        db_->ExecuteStatement(Statement::Select(Query::Point(0, v))).ok());
  }
  EXPECT_TRUE(CheckSpaceConsistency(db_->table(), *db_->space()).ok());
}

TEST_F(ConsistencyTest, ConsistentAfterDml) {
  for (Value v = 100; v < 110; ++v) {
    ASSERT_TRUE(
        db_->ExecuteStatement(Statement::Select(Query::Point(0, v))).ok());
  }
  Result<Rid> rid = AffectedRid(
      db_->ExecuteStatement(Statement::Insert(MakeTuple(105, 20, 300))));
  ASSERT_TRUE(rid.ok());
  Result<Rid> moved = AffectedRid(db_->ExecuteStatement(
      Statement::Update(rid.value(), MakeTuple(30, 200, 31))));
  ASSERT_TRUE(moved.ok());
  ASSERT_TRUE(db_->ExecuteStatement(Statement::Delete(moved.value())).ok());
  EXPECT_TRUE(CheckSpaceConsistency(db_->table(), *db_->space()).ok());
}

TEST_F(ConsistencyTest, DetectsCounterDrift) {
  ASSERT_TRUE(
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 100))).ok());
  IndexBuffer* buffer = db_->GetBuffer(0);
  ASSERT_NE(buffer, nullptr);
  // Sabotage a counter of an unbuffered... all pages are buffered after an
  // unlimited-space warmup; drop one partition first to free a page, then
  // corrupt its counter.
  const size_t partition_id = buffer->partitions().begin()->first;
  ASSERT_GT(buffer->DropPartition(partition_id), 0u);
  // Find a page with C > 0 and nudge it.
  for (size_t page = 0; page < buffer->counters().size(); ++page) {
    if (buffer->counters().Get(page) > 0) {
      buffer->counters().Decrement(page);
      break;
    }
  }
  EXPECT_TRUE(
      CheckBufferConsistency(db_->table(), *buffer).IsCorruption());
}

TEST_F(ConsistencyTest, DetectsStrayBufferEntry) {
  ASSERT_TRUE(
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 100))).ok());
  IndexBuffer* buffer = db_->GetBuffer(0);
  // An entry for a covered value is illegal in the buffer.
  buffer->AddTuple(0, /*value=*/5, Rid{0, 0});
  EXPECT_TRUE(
      CheckBufferConsistency(db_->table(), *buffer).IsCorruption());
}

TEST_F(ConsistencyTest, DetectsPartialIndexDrift) {
  PartialIndex* index = db_->GetIndex(1);
  ASSERT_NE(index, nullptr);
  // Remove one legitimate entry behind the engine's back.
  std::vector<Rid> rids;
  index->Lookup(10, &rids);
  if (rids.empty()) {
    // Value 10 absent in this seed's data; add a phantom entry instead.
    index->Add(10, Rid{0, 999});
  } else {
    index->Remove(10, rids[0]);
  }
  EXPECT_TRUE(
      CheckPartialIndexConsistency(db_->table(), *index).IsCorruption());
}

TEST_F(ConsistencyTest, DetectsSpaceAccountingViaBuffers) {
  // CheckSpaceConsistency validates each member buffer too.
  ASSERT_TRUE(
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 100))).ok());
  IndexBuffer* buffer = db_->GetBuffer(0);
  buffer->AddTuple(0, 5, Rid{0, 0});  // stray entry
  EXPECT_TRUE(
      CheckSpaceConsistency(db_->table(), *db_->space()).IsCorruption());
}

TEST_F(ConsistencyTest, DetectsColdRunValueMismatch) {
  ASSERT_TRUE(
      db_->ExecuteStatement(Statement::Select(Query::Point(0, 100))).ok());
  IndexBuffer* buffer = db_->GetBuffer(0);
  ASSERT_NE(buffer, nullptr);
  // Re-key one entry of a hot partition through the buffer's own calls —
  // exact page bookkeeping, value off from the heap's — then demote the
  // partition: only the entry-level walk of the cold tier can see it.
  const size_t id = buffer->partitions().begin()->first;
  Value value = 0;
  Rid rid;
  bool found = false;
  buffer->partitions().begin()->second->structure().ForEachEntry(
      [&](Value v, const Rid& r) {
        if (found) return;
        value = v;
        rid = r;
        found = true;
      });
  ASSERT_TRUE(found);
  const size_t page = db_->table().PageNumberOf(rid).value();
  ASSERT_TRUE(buffer->RemoveTuple(page, value, rid));
  buffer->AddTuple(page, value + 1000, rid);
  ASSERT_GT(buffer->DemotePartition(id), 0u);
  ASSERT_FALSE(buffer->partitions().contains(id));
  ASSERT_TRUE(buffer->cold_partitions().contains(id));
  EXPECT_TRUE(
      CheckBufferConsistency(db_->table(), *buffer).IsCorruption());
}

TEST_F(ConsistencyTest, ConsistentUnderTightBudgetChurn) {
  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 400;
  options.space.max_pages_per_scan = 6;
  options.buffer.partition_pages = 3;
  auto db = MakeSmallPaperDb(800, 500, 50, options, 77);
  ASSERT_NE(db, nullptr);
  Rng rng(123);
  for (int i = 0; i < 80; ++i) {
    const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
    const Value v = static_cast<Value>(rng.UniformInt(51, 500));
    ASSERT_TRUE(
        db->ExecuteStatement(Statement::Select(Query::Point(column, v))).ok());
    if (i % 20 == 19) {
      ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok())
          << "after query " << i;
    }
  }
}

}  // namespace
}  // namespace aib
