// End-to-end equivalence across index structures and workload skews: the
// full stack (storage -> indexes -> buffer -> executor) must return exact
// results regardless of which IndexStructure backs the partial indexes and
// the Index Buffer, and regardless of value-popularity skew.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "workload/workload_gen.h"

namespace aib {
namespace {

using ::aib::testing::GroundTruth;
using ::aib::testing::Sorted;

class StructureE2eTest
    : public ::testing::TestWithParam<IndexStructureKind> {};

TEST_P(StructureE2eTest, ExactResultsWithEveryStructure) {
  const IndexStructureKind kind = GetParam();
  DatabaseOptions options;
  options.max_tuples_per_page = 15;
  options.space.max_entries = 600;
  options.space.max_pages_per_scan = 8;
  options.buffer.partition_pages = 4;
  options.buffer.structure = kind;

  PaperSetupOptions setup;
  setup.num_tuples = 900;
  setup.value_max = 400;
  setup.covered_hi = 40;
  setup.payload_max = 32;
  setup.seed = 17;
  setup.db = options;
  setup.create_indexes = false;
  auto db = std::move(BuildPaperDatabase(setup)).value();
  // Partial indexes with the same structure kind as the buffer.
  for (ColumnId column = 0; column < 3; ++column) {
    ASSERT_TRUE(
        db->CreatePartialIndex(column, ValueCoverage::Range(1, 40), kind)
            .ok());
  }

  Rng rng(91);
  for (int i = 0; i < 50; ++i) {
    const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
    const Value lo = static_cast<Value>(rng.UniformInt(1, 400));
    const Value hi = rng.Bernoulli(0.3)
                         ? std::min<Value>(400, lo + 30)
                         : lo;
    Result<StatementResult> result =
        db->ExecuteStatement(Statement::Select(Query::Range(column, lo, hi)));
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, column, lo, hi)))
        << "structure " << static_cast<int>(kind) << " query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, StructureE2eTest,
    ::testing::Values(IndexStructureKind::kBTree, IndexStructureKind::kHash),
    [](const ::testing::TestParamInfo<IndexStructureKind>& info) {
      switch (info.param) {
        case IndexStructureKind::kBTree:
          return "BTree";
        case IndexStructureKind::kHash:
          return "Hash";
      }
      return "Unknown";
    });

TEST(ZipfE2eTest, SkewedWorkloadStaysExactAndConverges) {
  DatabaseOptions options;
  options.max_tuples_per_page = 15;
  auto db = ::aib::testing::MakeSmallPaperDb(1200, 500, 50, options, 23);
  ASSERT_NE(db, nullptr);

  ColumnMix mix;
  mix.column = 0;
  mix.hit_rate = 0.0;
  mix.uncovered_lo = 51;
  mix.uncovered_hi = 500;
  mix.zipf_theta = 0.9;
  PhaseSpec phase;
  phase.num_queries = 60;
  phase.mix = {mix};
  WorkloadGenerator gen({phase}, 5);

  double first_cost = -1;
  double last_cost = -1;
  while (auto q = gen.Next()) {
    Result<StatementResult> result =
        db->ExecuteStatement(Statement::Select(*q));
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(Sorted(result->rids),
              Sorted(GroundTruth(*db, q->column, q->lo, q->hi)));
    if (first_cost < 0) first_cost = result->stats.cost;
    last_cost = result->stats.cost;
  }
  // Skew does not break convergence: warm queries are far cheaper.
  EXPECT_LT(last_cost, first_cost / 5);
}

TEST(MixedStructureTest, DifferentStructuresPerColumnCoexist) {
  DatabaseOptions options;
  options.max_tuples_per_page = 15;
  PaperSetupOptions setup;
  setup.num_tuples = 600;
  setup.value_max = 300;
  setup.covered_hi = 30;
  setup.payload_max = 32;
  setup.seed = 41;
  setup.db = options;
  setup.create_indexes = false;
  auto db = std::move(BuildPaperDatabase(setup)).value();
  ASSERT_TRUE(db->CreatePartialIndex(0, ValueCoverage::Range(1, 30),
                                     IndexStructureKind::kBTree)
                  .ok());
  ASSERT_TRUE(db->CreatePartialIndex(1, ValueCoverage::Range(1, 30),
                                     IndexStructureKind::kHash)
                  .ok());
  ASSERT_TRUE(db->CreatePartialIndex(2, ValueCoverage::Range(1, 30),
                                     IndexStructureKind::kHash)
                  .ok());
  for (ColumnId column = 0; column < 3; ++column) {
    for (Value v : {15, 100, 250}) {
      Result<StatementResult> result =
          db->ExecuteStatement(Statement::Select(Query::Point(column, v)));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(Sorted(result->rids),
                Sorted(GroundTruth(*db, column, v, v)))
          << "column " << column << " value " << v;
    }
  }
}

}  // namespace
}  // namespace aib
