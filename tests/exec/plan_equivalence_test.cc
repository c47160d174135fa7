#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "exec/executor.h"

namespace aib {
namespace {

using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::Sorted;

// Totals of the paper workload below, recorded from the per-tuple
// reference implementation of Algorithm 1 (identical stats, query by
// query) before it was retired in favour of the operator path.
constexpr size_t kRecordedPagesScanned = 39;
constexpr size_t kRecordedPagesSkipped = 2847;
constexpr size_t kRecordedEntriesAdded = 5394;
constexpr size_t kRecordedBufferEntries[3] = {1822, 1798, 1774};

/// Reference implementations of the two plain access paths, written
/// directly against a Database's table and indexes: a per-tuple full scan
/// and a partial-index probe. The plan-based executor must reproduce their
/// rids in the exact emission order and their stats field by field.
class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(Database* db)
      : table_(&db->table()), cost_model_(db->options().cost), db_(db) {}

  Result<StatementResult> FullScan(const Query& query) {
    StatementResult result;
    const Schema& schema = table_->schema();
    for (size_t page = 0; page < table_->PageCount(); ++page) {
      AIB_RETURN_IF_ERROR(table_->heap().ForEachTupleOnPage(
          page, [&](const Rid& rid, const Tuple& tuple) {
            const Value v = tuple.IntValue(schema, query.column);
            if (v >= query.lo && v <= query.hi) result.rids.push_back(rid);
          }));
      ++result.stats.pages_scanned;
    }
    result.stats.result_count = result.rids.size();
    result.stats.cost = cost_model_.QueryCost(result.stats);
    return result;
  }

  Result<StatementResult> IndexScan(const Query& query) {
    PartialIndex* index = db_->GetIndex(query.column);
    if (index == nullptr ||
        !index->coverage().CoversRange(query.lo, query.hi)) {
      return Status::InvalidArgument(
          "predicate not fully covered by a partial index");
    }
    StatementResult result;
    result.stats.used_partial_index = true;
    if (query.IsPoint()) {
      index->Lookup(query.lo, &result.rids);
    } else {
      index->Scan(query.lo, query.hi,
                  [&](Value, const Rid& rid) { result.rids.push_back(rid); });
    }
    ++result.stats.ix_probes;
    std::unordered_set<PageId> pages;
    for (const Rid& rid : result.rids) {
      AIB_RETURN_IF_ERROR(table_->Get(rid).status());
      pages.insert(rid.page_id);
    }
    result.stats.pages_fetched = pages.size();
    result.stats.result_count = result.rids.size();
    result.stats.cost = cost_model_.QueryCost(result.stats);
    return result;
  }

 private:
  const Table* table_;
  CostModel cost_model_;
  Database* db_;
};

/// Compares a reference result against a plan-path result: rids in
/// emission order, and every stats field.
void ExpectEquivalent(const StatementResult& reference,
                      const StatementResult& plan, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(reference.rids, plan.rids);
  EXPECT_EQ(reference.stats.used_partial_index, plan.stats.used_partial_index);
  EXPECT_EQ(reference.stats.used_index_buffer, plan.stats.used_index_buffer);
  EXPECT_EQ(reference.stats.result_count, plan.stats.result_count);
  EXPECT_EQ(reference.stats.pages_scanned, plan.stats.pages_scanned);
  EXPECT_EQ(reference.stats.pages_skipped, plan.stats.pages_skipped);
  EXPECT_EQ(reference.stats.pages_fetched, plan.stats.pages_fetched);
  EXPECT_EQ(reference.stats.ix_probes, plan.stats.ix_probes);
  EXPECT_EQ(reference.stats.buffer_probes, plan.stats.buffer_probes);
  EXPECT_EQ(reference.stats.buffer_matches, plan.stats.buffer_matches);
  EXPECT_EQ(reference.stats.entries_added, plan.stats.entries_added);
  EXPECT_EQ(reference.stats.entries_dropped, plan.stats.entries_dropped);
  EXPECT_EQ(reference.stats.partitions_dropped, plan.stats.partitions_dropped);
  EXPECT_DOUBLE_EQ(reference.stats.cost, plan.stats.cost);
}

/// The paper-scenario workload from the seed's integration tests: mixed
/// point and range queries across all three columns — covered hits,
/// uncovered misses (the Algorithm 1 path), hybrid ranges crossing the
/// coverage boundary, and fully covered ranges. Every answer is checked
/// against a brute-force oracle (one pass over the table's tuples), every
/// indexing scan accounts for each page exactly once, and the workload's
/// adaptive trajectory — pages scanned and skipped, entries indexed, and
/// the converged buffer sizes — matches the figures recorded from the
/// per-tuple reference implementation of Algorithm 1 this engine replaced.
TEST(PlanEquivalenceTest, PaperWorkloadIdenticalRidsAndStats) {
  std::unique_ptr<Database> db = MakeSmallPaperDb(
      /*num_tuples=*/2000, /*value_max=*/1000, /*covered_hi=*/100);
  ASSERT_NE(db, nullptr);
  const size_t page_count = db->table().PageCount();

  size_t pages_scanned = 0;
  size_t pages_skipped = 0;
  size_t entries_added = 0;
  Rng rng(271828);
  for (int i = 0; i < 300; ++i) {
    const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
    const int kind = static_cast<int>(rng.UniformInt(0, 99));
    Query query = Query::Point(column, 0);
    if (kind < 50) {
      // Uncovered point — the adaptive miss path.
      query = Query::Point(column,
                           static_cast<Value>(rng.UniformInt(101, 1000)));
    } else if (kind < 70) {
      // Covered point — partial-index hit.
      query =
          Query::Point(column, static_cast<Value>(rng.UniformInt(1, 100)));
    } else if (kind < 85) {
      // Hybrid range crossing the coverage boundary at 100.
      const Value lo = static_cast<Value>(rng.UniformInt(50, 99));
      query = Query::Range(column, lo,
                           lo + static_cast<Value>(rng.UniformInt(2, 100)));
    } else if (kind < 95) {
      // Uncovered range.
      const Value lo = static_cast<Value>(rng.UniformInt(150, 900));
      query = Query::Range(column, lo,
                           lo + static_cast<Value>(rng.UniformInt(0, 50)));
    } else {
      // Covered range.
      const Value lo = static_cast<Value>(rng.UniformInt(1, 50));
      query = Query::Range(column, lo,
                           lo + static_cast<Value>(rng.UniformInt(0, 49)));
    }

    Result<StatementResult> result =
        db->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SCOPED_TRACE("query " + std::to_string(i) + " col" +
                 std::to_string(query.column) + " [" +
                 std::to_string(query.lo) + "," + std::to_string(query.hi) +
                 "]");
    EXPECT_EQ(Sorted(result->rids),
              Sorted(GroundTruth(*db, query.column, query.lo, query.hi)));
    EXPECT_EQ(result->stats.result_count, result->rids.size());
    if (result->stats.used_index_buffer) {
      EXPECT_EQ(result->stats.pages_scanned + result->stats.pages_skipped,
                page_count);
    }
    pages_scanned += result->stats.pages_scanned;
    pages_skipped += result->stats.pages_skipped;
    entries_added += result->stats.entries_added;
  }

  EXPECT_EQ(pages_scanned, kRecordedPagesScanned);
  EXPECT_EQ(pages_skipped, kRecordedPagesSkipped);
  EXPECT_EQ(entries_added, kRecordedEntriesAdded);
  for (ColumnId c = 0; c < 3; ++c) {
    ASSERT_NE(db->GetBuffer(c), nullptr);
    EXPECT_EQ(db->GetBuffer(c)->TotalEntries(), kRecordedBufferEntries[c])
        << "column " << c;
  }
}

TEST(PlanEquivalenceTest, FullScanEntryPointEquivalent) {
  // Without an Index Buffer Space every uncovered or partially covered
  // select plans as a plain full table scan.
  DatabaseOptions options;
  options.enable_index_buffer = false;
  std::unique_ptr<Database> db = MakeSmallPaperDb(2000, 1000, 100, options);
  ASSERT_NE(db, nullptr);
  ReferenceExecutor reference(db.get());
  for (const Query& query :
       {Query::Point(1, 700), Query::Range(0, 50, 150),
        Query::Range(2, 1, 1000)}) {
    Result<StatementResult> reference_result = reference.FullScan(query);
    Result<StatementResult> plan_result =
        db->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(reference_result.ok() && plan_result.ok());
    ExpectEquivalent(*reference_result, *plan_result,
                     "full scan [" + std::to_string(query.lo) + "," +
                         std::to_string(query.hi) + "]");
  }
}

TEST(PlanEquivalenceTest, IndexScanEntryPointEquivalent) {
  // A fully covered select plans as a pure partial-index probe.
  std::unique_ptr<Database> db = MakeSmallPaperDb();
  ASSERT_NE(db, nullptr);
  ReferenceExecutor reference(db.get());
  for (const Query& query : {Query::Point(0, 50), Query::Range(1, 10, 60)}) {
    Result<StatementResult> reference_result = reference.IndexScan(query);
    Result<StatementResult> plan_result =
        db->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(reference_result.ok() && plan_result.ok());
    ExpectEquivalent(*reference_result, *plan_result,
                     "index scan [" + std::to_string(query.lo) + "," +
                         std::to_string(query.hi) + "]");
  }
}

}  // namespace
}  // namespace aib
