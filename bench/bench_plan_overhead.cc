// Refactor guard: the physical-plan execution layer must not regress the
// engine measurably. Replays the Figure 6 workload (200 point queries on
// uncovered values of column A, unlimited space) and checks
//
//   1. total simulated cost against the recorded pre-refactor number (the
//      monolithic executor produced 4178.766 cost units at --scale=small
//      --seed=1) — the plan path must stay within +5%;
//   2. wall time of the plan path against an inlined copy of the
//      pre-refactor monolithic executor running the identical workload on
//      an identically-seeded database — median over repetitions, +5%
//      budget.
//
// Exits nonzero on violation, so the guard can run in CI. --csv emits the
// per-repetition timings.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/csv_writer.h"
#include "core/indexing_scan.h"

namespace aib {
namespace {

/// Pre-refactor total simulated cost of this exact workload at
/// --scale=small --seed=1, recorded from the monolithic executor
/// immediately before the plan refactor.
constexpr double kRecordedSmallSeed1Cost = 4178.766;
constexpr double kBudget = 1.05;
constexpr int kRepetitions = 7;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Inlined copy of the pre-refactor monolithic executor (hit branch +
/// ExecuteMiss), the wall-time reference the plan path races against.
class DirectExecutor {
 public:
  explicit DirectExecutor(Database* db)
      : db_(db),
        table_(&db->table()),
        space_(db->space()),
        cost_model_(db->options().cost),
        buffer_options_(db->options().buffer) {}

  Result<StatementResult> Execute(const Query& query) {
    PartialIndex* index = db_->GetIndex(query.column);
    if (index == nullptr) return Status::Internal("bench expects an index");

    const int64_t start = NowNs();
    const bool hit = index->coverage().CoversRange(query.lo, query.hi);
    if (space_ != nullptr) {
      std::unique_lock<std::shared_mutex> latch(space_->latch());
      space_->OnQuery(index, hit);
    }

    StatementResult result;
    if (hit) {
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
    } else {
      std::unique_lock<std::shared_mutex> latch(space_->latch());
      IndexBuffer* buffer = space_->GetBuffer(index);
      if (buffer == nullptr) {
        AIB_ASSIGN_OR_RETURN(buffer,
                             space_->CreateBuffer(index, buffer_options_));
      }
      result.stats.used_index_buffer = true;
      result.stats.buffer_probes = buffer->PartitionCount();
      IndexingScanStats scan_stats;
      AIB_RETURN_IF_ERROR(RunIndexingScan(*table_, space_, buffer, query.lo,
                                          query.hi, &result.rids,
                                          &scan_stats));
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
    }
    result.stats.result_count = result.rids.size();
    result.stats.cost = cost_model_.QueryCost(result.stats);
    result.stats.wall_ns = NowNs() - start;
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

  Database* db_;
  const Table* table_;
  IndexBufferSpace* space_;
  CostModel cost_model_;
  IndexBufferOptions buffer_options_;
};

std::unique_ptr<Database> BuildFig6Db(const bench::BenchArgs& args) {
  PaperSetupOptions setup = bench::PaperSetup(args);
  setup.db.space.max_entries = 0;
  setup.db.space.max_pages_per_scan = std::max<size_t>(1, args.num_tuples / 100);
  setup.db.buffer.partition_pages = std::max<size_t>(1, args.num_tuples / 50);
  Result<std::unique_ptr<Database>> db = BuildPaperDatabase(setup);
  return db.ok() ? std::move(db).value() : nullptr;
}

std::vector<Query> Fig6Queries(const bench::BenchArgs& args) {
  PhaseSpec phase;
  phase.num_queries = 200;
  phase.mix = {bench::PaperMix(0)};
  WorkloadGenerator gen({phase}, args.seed);
  std::vector<Query> queries;
  while (std::optional<Query> q = gen.Next()) queries.push_back(*q);
  return queries;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int Run(const bench::BenchArgs& args) {
  const std::vector<Query> queries = Fig6Queries(args);

  // One repetition = the full 200-query workload on a fresh database.
  // Alternate plan/direct order per repetition so cache warmth cancels.
  std::vector<double> plan_ms, direct_ms, plan_costs;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (int side = 0; side < 2; ++side) {
      const bool plan_side = (rep + side) % 2 == 0;
      std::unique_ptr<Database> db = BuildFig6Db(args);
      if (db == nullptr) {
        std::cerr << "setup failed\n";
        return 1;
      }
      DirectExecutor direct(db.get());
      double total_cost = 0;
      const int64_t start = NowNs();
      for (const Query& query : queries) {
        Result<StatementResult> result =
            plan_side ? db->ExecuteStatement(Statement::Select(query))
                      : direct.Execute(query);
        if (!result.ok()) {
          std::cerr << "query failed: " << result.status().ToString() << "\n";
          return 1;
        }
        total_cost += result->stats.cost;
      }
      const double elapsed_ms =
          static_cast<double>(NowNs() - start) / 1e6;
      if (plan_side) {
        plan_ms.push_back(elapsed_ms);
        plan_costs.push_back(total_cost);
      } else {
        direct_ms.push_back(elapsed_ms);
      }
    }
  }

  const double plan_cost = plan_costs.front();
  const double plan_median = Median(plan_ms);
  const double direct_median = Median(direct_ms);
  const double wall_ratio = plan_median / direct_median;

  auto csv = bench::OpenCsv(args);
  if (csv != nullptr) {
    CsvWriter csv_writer(*csv);
    csv_writer.WriteHeader({"rep", "plan_ms", "direct_ms"});
    for (size_t i = 0; i < plan_ms.size(); ++i) {
      csv_writer.Row(i, FormatDouble(plan_ms[i], 3),
                     FormatDouble(direct_ms[i], 3));
    }
  }

  std::cout << "Plan-overhead guard — Fig. 6 workload, " << queries.size()
            << " queries, scale=" << args.scale << ", seed=" << args.seed
            << "\n\n"
            << "simulated cost (plan path):  " << FormatDouble(plan_cost, 3)
            << "\n"
            << "wall median (plan path):     " << FormatDouble(plan_median, 2)
            << " ms\nwall median (direct path):   "
            << FormatDouble(direct_median, 2) << " ms\nwall ratio:          "
            << "        " << FormatDouble(wall_ratio, 3) << "\n\n";

  int failures = 0;
  if (args.scale == "small" && args.seed == 1) {
    const double limit = kRecordedSmallSeed1Cost * kBudget;
    std::cout << "cost check:  " << FormatDouble(plan_cost, 3)
              << " <= " << FormatDouble(limit, 3) << " (recorded "
              << FormatDouble(kRecordedSmallSeed1Cost, 3) << " +5%): ";
    if (plan_cost <= limit) {
      std::cout << "OK\n";
    } else {
      std::cout << "FAIL\n";
      ++failures;
    }
  } else {
    std::cout << "cost check:  skipped (recorded baseline is for "
                 "--scale=small --seed=1)\n";
  }
  std::cout << "wall check:  ratio " << FormatDouble(wall_ratio, 3)
            << " <= " << FormatDouble(kBudget, 2) << ": ";
  if (wall_ratio <= kBudget) {
    std::cout << "OK\n";
  } else {
    std::cout << "FAIL\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace aib

int main(int argc, char** argv) {
  return aib::Run(aib::bench::ParseArgs(argc, argv));
}
