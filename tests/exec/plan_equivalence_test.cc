#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "core/indexing_scan.h"
#include "exec/executor.h"

namespace aib {
namespace {

using ::aib::testing::MakeSmallPaperDb;

/// Faithful reimplementation of the pre-refactor monolithic Executor (the
/// tree before the physical-plan refactor), operating directly on a
/// Database's table, space, and indexes. The plan-based executor must
/// reproduce its rids in the exact emission order and its stats field by
/// field; only pages_fetched may differ (the refactor deduplicates fetched
/// pages across the whole query, the monolith deduplicated per FetchRids
/// call, double-counting pages shared between the buffer-match fetch and
/// the hybrid covered-on-skipped fetch).
class LegacyExecutor {
 public:
  explicit LegacyExecutor(Database* db)
      : table_(&db->table()),
        space_(db->space()),
        cost_model_(db->options().cost),
        buffer_options_(db->options().buffer),
        db_(db) {}

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
    AIB_RETURN_IF_ERROR(FetchRids(result.rids, &result.stats));
    result.stats.result_count = result.rids.size();
    result.stats.cost = cost_model_.QueryCost(result.stats);
    return result;
  }

  Result<StatementResult> Execute(const Query& query) {
    PartialIndex* index = db_->GetIndex(query.column);
    if (index == nullptr) return FullScan(query);

    const bool hit = index->coverage().CoversRange(query.lo, query.hi);
    if (space_ != nullptr) {
      std::unique_lock<std::shared_mutex> latch(space_->latch());
      space_->OnQuery(index, hit);
    }

    if (hit) {
      StatementResult result;
      result.stats.used_partial_index = true;
      if (query.IsPoint()) {
        index->Lookup(query.lo, &result.rids);
      } else {
        index->Scan(query.lo, query.hi, [&](Value, const Rid& rid) {
          result.rids.push_back(rid);
        });
      }
      ++result.stats.ix_probes;
      AIB_RETURN_IF_ERROR(FetchRids(result.rids, &result.stats));
      result.stats.result_count = result.rids.size();
      result.stats.cost = cost_model_.QueryCost(result.stats);
      return result;
    }

    AIB_ASSIGN_OR_RETURN(StatementResult result, ExecuteMiss(query, index));
    result.stats.cost = cost_model_.QueryCost(result.stats);
    return result;
  }

 private:
  Status FetchRids(const std::vector<Rid>& rids, QueryStats* stats) const {
    std::unordered_set<PageId> pages;
    for (const Rid& rid : rids) {
      AIB_RETURN_IF_ERROR(table_->Get(rid).status());
      pages.insert(rid.page_id);
    }
    stats->pages_fetched += pages.size();
    return Status::Ok();
  }

  Result<StatementResult> ExecuteMiss(const Query& query, PartialIndex* index) {
    if (space_ == nullptr) return FullScan(query);

    std::unique_lock<std::shared_mutex> latch(space_->latch());

    IndexBuffer* buffer = space_->GetBuffer(index);
    if (buffer == nullptr) {
      AIB_ASSIGN_OR_RETURN(buffer,
                           space_->CreateBuffer(index, buffer_options_));
    }

    StatementResult result;
    result.stats.used_index_buffer = true;
    result.stats.buffer_probes = buffer->PartitionCount();

    const bool hybrid =
        !index->coverage().CoversRange(query.lo, query.hi) &&
        index->coverage().IntersectsRange(query.lo, query.hi);
    std::vector<bool> skipped_before;
    if (hybrid) {
      buffer->counters().EnsureSize(table_->PageCount());
      skipped_before.resize(table_->PageCount());
      for (size_t page = 0; page < table_->PageCount(); ++page) {
        skipped_before[page] = buffer->counters().Get(page) == 0;
      }
    }

    IndexingScanStats scan_stats;
    AIB_RETURN_IF_ERROR(RunIndexingScan(*table_, space_, buffer, query.lo,
                                        query.hi, &result.rids, &scan_stats));
    result.stats.pages_scanned = scan_stats.pages_scanned;
    result.stats.pages_skipped = scan_stats.pages_skipped;
    result.stats.entries_added = scan_stats.entries_added;
    result.stats.buffer_matches = scan_stats.buffer_matches;
    result.stats.partitions_dropped = scan_stats.partitions_dropped;
    result.stats.entries_dropped = scan_stats.entries_dropped;

    const std::vector<Rid> buffer_rids(
        result.rids.begin(),
        result.rids.begin() +
            static_cast<ptrdiff_t>(scan_stats.buffer_matches));
    AIB_RETURN_IF_ERROR(FetchRids(buffer_rids, &result.stats));

    if (hybrid) {
      std::vector<Rid> covered_on_skipped;
      Status page_status = Status::Ok();
      index->Scan(query.lo, query.hi, [&](Value, const Rid& rid) {
        Result<size_t> page = table_->PageNumberOf(rid);
        if (!page.ok()) {
          page_status = page.status();
          return;
        }
        if (page.value() < skipped_before.size() &&
            skipped_before[page.value()]) {
          covered_on_skipped.push_back(rid);
        }
      });
      AIB_RETURN_IF_ERROR(page_status);
      ++result.stats.ix_probes;
      AIB_RETURN_IF_ERROR(FetchRids(covered_on_skipped, &result.stats));
      result.rids.insert(result.rids.end(), covered_on_skipped.begin(),
                         covered_on_skipped.end());
    }

    result.stats.result_count = result.rids.size();
    return result;
  }

  const Table* table_;
  IndexBufferSpace* space_;
  CostModel cost_model_;
  IndexBufferOptions buffer_options_;
  Database* db_;
};

/// Compares a legacy result against a plan-path result. Rids must match in
/// emission order; every stats field must match except pages_fetched (the
/// plan path may count fewer after query-wide dedup — never more) and cost
/// (equal whenever pages_fetched is, never higher otherwise).
void ExpectEquivalent(
    const StatementResult& legacy, const StatementResult& plan,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(legacy.rids, plan.rids);
  EXPECT_EQ(legacy.stats.used_partial_index, plan.stats.used_partial_index);
  EXPECT_EQ(legacy.stats.used_index_buffer, plan.stats.used_index_buffer);
  EXPECT_EQ(legacy.stats.result_count, plan.stats.result_count);
  EXPECT_EQ(legacy.stats.pages_scanned, plan.stats.pages_scanned);
  EXPECT_EQ(legacy.stats.pages_skipped, plan.stats.pages_skipped);
  EXPECT_EQ(legacy.stats.ix_probes, plan.stats.ix_probes);
  EXPECT_EQ(legacy.stats.buffer_probes, plan.stats.buffer_probes);
  EXPECT_EQ(legacy.stats.buffer_matches, plan.stats.buffer_matches);
  EXPECT_EQ(legacy.stats.entries_added, plan.stats.entries_added);
  EXPECT_EQ(legacy.stats.entries_dropped, plan.stats.entries_dropped);
  EXPECT_EQ(legacy.stats.partitions_dropped, plan.stats.partitions_dropped);
  EXPECT_LE(plan.stats.pages_fetched, legacy.stats.pages_fetched);
  if (legacy.stats.pages_fetched == plan.stats.pages_fetched) {
    EXPECT_DOUBLE_EQ(legacy.stats.cost, plan.stats.cost);
  } else {
    EXPECT_LE(plan.stats.cost, legacy.stats.cost);
  }
}

/// The paper-scenario workload from the seed's integration tests: mixed
/// point and range queries across all three columns — covered hits,
/// uncovered misses (the Algorithm 1 path), hybrid ranges crossing the
/// coverage boundary, and fully covered ranges — driven against two
/// identically-seeded databases so legacy and plan executors see identical
/// adaptive state at every step.
TEST(PlanEquivalenceTest, PaperWorkloadIdenticalRidsAndStats) {
  std::unique_ptr<Database> legacy_db = MakeSmallPaperDb(
      /*num_tuples=*/2000, /*value_max=*/1000, /*covered_hi=*/100);
  std::unique_ptr<Database> plan_db = MakeSmallPaperDb(
      /*num_tuples=*/2000, /*value_max=*/1000, /*covered_hi=*/100);
  ASSERT_NE(legacy_db, nullptr);
  ASSERT_NE(plan_db, nullptr);

  LegacyExecutor legacy(legacy_db.get());
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

    Result<StatementResult> legacy_result = legacy.Execute(query);
    Result<StatementResult> plan_result =
        plan_db->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(legacy_result.ok()) << legacy_result.status().ToString();
    ASSERT_TRUE(plan_result.ok()) << plan_result.status().ToString();
    ExpectEquivalent(*legacy_result, *plan_result,
                     "query " + std::to_string(i) + " col" +
                         std::to_string(query.column) + " [" +
                         std::to_string(query.lo) + "," +
                         std::to_string(query.hi) + "]");
  }

  // Adaptive state converged identically: same buffer contents.
  for (ColumnId c = 0; c < 3; ++c) {
    ASSERT_NE(legacy_db->GetBuffer(c), nullptr);
    ASSERT_NE(plan_db->GetBuffer(c), nullptr);
    EXPECT_EQ(legacy_db->GetBuffer(c)->TotalEntries(),
              plan_db->GetBuffer(c)->TotalEntries())
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
  LegacyExecutor legacy(db.get());
  for (const Query& query :
       {Query::Point(1, 700), Query::Range(0, 50, 150),
        Query::Range(2, 1, 1000)}) {
    Result<StatementResult> legacy_result = legacy.FullScan(query);
    Result<StatementResult> plan_result =
        db->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(legacy_result.ok() && plan_result.ok());
    ExpectEquivalent(*legacy_result, *plan_result,
                     "full scan [" + std::to_string(query.lo) + "," +
                         std::to_string(query.hi) + "]");
  }
}

TEST(PlanEquivalenceTest, IndexScanEntryPointEquivalent) {
  // A fully covered select plans as a pure partial-index probe.
  std::unique_ptr<Database> db = MakeSmallPaperDb();
  ASSERT_NE(db, nullptr);
  LegacyExecutor legacy(db.get());
  for (const Query& query : {Query::Point(0, 50), Query::Range(1, 10, 60)}) {
    Result<StatementResult> legacy_result = legacy.IndexScan(query);
    Result<StatementResult> plan_result =
        db->ExecuteStatement(Statement::Select(query));
    ASSERT_TRUE(legacy_result.ok() && plan_result.ok());
    ExpectEquivalent(*legacy_result, *plan_result,
                     "index scan [" + std::to_string(query.lo) + "," +
                         std::to_string(query.hi) + "]");
  }
}

}  // namespace
}  // namespace aib
