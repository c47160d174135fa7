// Property-based integration test: the system's core invariants hold under
// arbitrary interleavings of DML, queries, and adaptation.
//
// Invariants checked after random operation sequences:
//   (1) C[p] equals the number of live tuples on page p covered by neither
//       the partial index nor the Index Buffer (for every buffer);
//   (2) buffered pages (p ∈ B) always have C[p] == 0;
//   (3) every query returns exactly the ground-truth rid set;
//   (4) a bounded Index Buffer Space never exceeds its entry budget.

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"
#include "common/rng.h"
#include "core/consistency.h"

namespace aib {
namespace {

using ::aib::testing::AffectedRid;
using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::MakeTuple;
using ::aib::testing::Sorted;

void CheckCounterInvariants(const Database& db) {
  for (ColumnId column = 0; column < 3; ++column) {
    IndexBuffer* buffer = db.GetBuffer(column);
    if (buffer == nullptr) continue;
    const PartialIndex* index = db.GetIndex(column);
    ASSERT_NE(index, nullptr);
    for (size_t page = 0; page < db.table().PageCount(); ++page) {
      const bool in_buffer = buffer->PageInBuffer(page);
      size_t expected = 0;
      ASSERT_TRUE(db.table()
                      .heap()
                      .ForEachTupleOnPage(
                          page,
                          [&](const Rid&, const Tuple& tuple) {
                            const Value v =
                                tuple.IntValue(db.table().schema(), column);
                            if (!index->Covers(v) && !in_buffer) ++expected;
                          })
                      .ok());
      ASSERT_EQ(buffer->counters().Get(page), expected)
          << "column " << column << " page " << page;
      if (in_buffer) {
        ASSERT_EQ(buffer->counters().Get(page), 0u)
            << "buffered page with nonzero counter";
      }
    }
  }
}

class DmlInvariantsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DmlInvariantsTest, InvariantsHoldUnderRandomOps) {
  DatabaseOptions options;
  options.space.max_entries = 800;
  options.space.max_pages_per_scan = 8;
  options.space.seed = GetParam();
  options.buffer.partition_pages = 4;
  auto db = MakeSmallPaperDb(1200, 600, 60, options, GetParam());
  ASSERT_NE(db, nullptr);

  Rng rng(GetParam() * 1000003);
  size_t dml_ops = 0;
  std::vector<Rid> live;
  (void)db->table().heap().ForEachTuple(
      [&](const Rid& rid, const Tuple&) { live.push_back(rid); });

  for (int op = 0; op < 250; ++op) {
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind < 5) {  // query (uncovered values mostly)
      const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
      const Value v = static_cast<Value>(rng.UniformInt(1, 600));
      Result<StatementResult> result =
          db->ExecuteStatement(Statement::Select(Query::Point(column, v)));
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, column, v, v)))
          << "op " << op;
    } else if (kind < 7) {  // insert
      const Value a = static_cast<Value>(rng.UniformInt(1, 600));
      const Value b = static_cast<Value>(rng.UniformInt(1, 600));
      const Value c = static_cast<Value>(rng.UniformInt(1, 600));
      Result<Rid> rid = AffectedRid(
          db->ExecuteStatement(Statement::Insert(MakeTuple(a, b, c))));
      ASSERT_TRUE(rid.ok());
      live.push_back(rid.value());
      ++dml_ops;
    } else if (kind < 9) {  // update
      if (live.empty()) continue;
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      const Value a = static_cast<Value>(rng.UniformInt(1, 600));
      Result<Rid> new_rid = AffectedRid(db->ExecuteStatement(
          Statement::Update(live[pick], MakeTuple(a, a / 2 + 1, 600 - a + 1))));
      ASSERT_TRUE(new_rid.ok()) << new_rid.status().ToString();
      live[pick] = new_rid.value();
      ++dml_ops;
    } else {  // delete
      if (live.empty()) continue;
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      ASSERT_TRUE(db->ExecuteStatement(Statement::Delete(live[pick])).ok());
      live[pick] = live.back();
      live.pop_back();
    }

    // Budget invariant: the scan path never grows the space beyond L.
    // DML against buffered pages may add entries between scans (at most one
    // per buffer per statement); the space enforces the bound only "before
    // it adds new entries with a table scan" (§IV), exactly as the paper
    // specifies.
    ASSERT_LE(db->space()->TotalEntries(),
              options.space.max_entries + 3 * dml_ops)
        << "op " << op;
  }

  CheckCounterInvariants(*db);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmlInvariantsTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(DmlInvariantsSingleTest, UpdatesAcrossPageBoundaries) {
  // Updates that relocate tuples between a buffered and an unbuffered page
  // exercise the cross-page cells of Table I through the full stack.
  DatabaseOptions options;
  options.buffer.partition_pages = 2;
  auto db = MakeSmallPaperDb(600, 400, 40, options, 5);
  ASSERT_NE(db, nullptr);
  // Warm buffer for column A.
  for (Value v = 200; v < 212; ++v) {
    ASSERT_TRUE(
        db->ExecuteStatement(Statement::Select(Query::Point(0, v))).ok());
  }
  // Grow a payload so the tuple relocates.
  std::vector<Rid> victims;
  (void)db->table().heap().ForEachTupleOnPage(
      2, [&](const Rid& rid, const Tuple&) { victims.push_back(rid); });
  ASSERT_FALSE(victims.empty());
  Result<Tuple> old_tuple = db->table().Get(victims[0]);
  ASSERT_TRUE(old_tuple.ok());
  Tuple fat(old_tuple->ints(), {std::string(2000, 'q')});
  Result<Rid> new_rid =
      AffectedRid(db->ExecuteStatement(Statement::Update(victims[0], fat)));
  ASSERT_TRUE(new_rid.ok());
  EXPECT_NE(new_rid.value(), victims[0]);
  CheckCounterInvariants(*db);
  // Queries remain exact.
  const Value moved_value = old_tuple->IntValue(db->table().schema(), 0);
  Result<StatementResult> result =
      db->ExecuteStatement(Statement::Select(Query::Point(0, moved_value)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->rids),
            Sorted(GroundTruth(*db, 0, moved_value, moved_value)));
}

// A table whose deletes balance its inserts stays its size: deleted and
// shrunk records give their bytes back (page compaction and the heap's
// free-space list), and an insert into an older page keeps C[p] and the
// Index Buffer exact through Table I, whichever way the space evicts.
TEST(HeapReuseTest, BalancedDmlKeepsTheTableNearItsLoadedSize) {
  for (const EvictionMode mode : {EvictionMode::kDemote, EvictionMode::kDrop}) {
    SCOPED_TRACE(mode == EvictionMode::kDemote ? "demote" : "drop");
    DatabaseOptions options;
    options.space.eviction_mode = mode;
    options.space.max_entries = 2000;  // below demand: partitions evict
    options.space.max_pages_per_scan = 8;
    options.buffer.partition_pages = 4;
    auto db = MakeSmallPaperDb(16000, 2000, 200, options, 17);
    ASSERT_NE(db, nullptr);
    const size_t loaded = db->table().PageCount();
    std::vector<Rid> live;
    (void)db->table().heap().ForEachTuple(
        [&](const Rid& rid, const Tuple&) { live.push_back(rid); });

    Rng rng(4242);
    const auto random_tuple = [&] {
      const auto value = [&] {
        return static_cast<Value>(rng.UniformInt(1, 2000));
      };
      const Value a = value(), b = value(), c = value();
      return MakeTuple(a, b, c,
                       std::string(static_cast<size_t>(rng.UniformInt(1, 64)),
                                   'p'));
    };
    const auto pick = [&] {
      return static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
    };
    size_t relocated = 0;
    size_t older_page_inserts = 0;
    for (int round = 0; round < 2000; ++round) {
      // One delete, one insert, and one update to a fresh random payload
      // size (about half outgrow their slot and relocate) per round.
      const size_t victim = pick();
      ASSERT_TRUE(db->ExecuteStatement(Statement::Delete(live[victim])).ok());
      live[victim] = live.back();
      live.pop_back();
      Result<Rid> inserted = AffectedRid(
          db->ExecuteStatement(Statement::Insert(random_tuple())));
      ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
      live.push_back(inserted.value());
      if (db->table().PageNumberOf(inserted.value()).value() + 1 <
          db->table().PageCount()) {
        ++older_page_inserts;
      }
      const size_t target = pick();
      Result<Rid> updated = AffectedRid(db->ExecuteStatement(
          Statement::Update(live[target], random_tuple())));
      ASSERT_TRUE(updated.ok()) << updated.status().ToString();
      if (updated.value() != live[target]) ++relocated;
      live[target] = updated.value();

      // An uncovered read adapts the buffers, so inserts land on buffered
      // pages as well as on counted ones.
      const ColumnId column = static_cast<ColumnId>(round % 3);
      const Value v = static_cast<Value>(rng.UniformInt(201, 2000));
      Result<StatementResult> read =
          db->ExecuteStatement(Statement::Select(Query::Point(column, v)));
      ASSERT_TRUE(read.ok());
      if (round % 100 == 0) {
        ASSERT_EQ(Sorted(read->rids), Sorted(GroundTruth(*db, column, v, v)))
            << "round " << round;
      }
      if (round % 250 == 249) {
        CheckCounterInvariants(*db);
        ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok())
            << "round " << round;
      }
    }
    EXPECT_EQ(db->table().TupleCount(), 16000u);
    EXPECT_GT(relocated, 500u);
    EXPECT_GT(older_page_inserts, 1000u);
    EXPECT_LE(static_cast<double>(db->table().PageCount()),
              1.03 * static_cast<double>(loaded))
        << "loaded " << loaded << " pages";
  }
}

}  // namespace
}  // namespace aib
