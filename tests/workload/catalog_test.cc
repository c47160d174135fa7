#include "workload/catalog.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/rng.h"

namespace aib {
namespace {

using ::aib::testing::AffectedRid;

Catalog MakeCatalog(CatalogOptions options = {}) {
  return Catalog(options);
}

/// Loads `n` tuples with values 1..value_max into `table`.
void Load(Catalog& catalog, Table* table, size_t n, Value value_max,
          uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Tuple tuple({static_cast<Value>(rng.UniformInt(1, value_max))}, {"p"});
    ASSERT_TRUE(catalog.LoadTuple(table, tuple).ok());
  }
}

TEST(CatalogTest, CreateAndLookupTables) {
  Catalog catalog = MakeCatalog();
  Result<Table*> flights =
      catalog.CreateTable("flights", Schema::PaperSchema(1, 16));
  Result<Table*> bookings =
      catalog.CreateTable("bookings", Schema::PaperSchema(2, 16));
  ASSERT_TRUE(flights.ok());
  ASSERT_TRUE(bookings.ok());
  EXPECT_EQ(catalog.GetTable("flights"), flights.value());
  EXPECT_EQ(catalog.GetTable("bookings"), bookings.value());
  EXPECT_EQ(catalog.GetTable("nope"), nullptr);
  EXPECT_EQ(catalog.TableNames(),
            (std::vector<std::string>{"flights", "bookings"}));
}

TEST(CatalogTest, DuplicateTableNameRejected) {
  Catalog catalog = MakeCatalog();
  ASSERT_TRUE(catalog.CreateTable("t", Schema::PaperSchema(1, 16)).ok());
  EXPECT_TRUE(catalog.CreateTable("t", Schema::PaperSchema(1, 16))
                  .status()
                  .IsAlreadyExists());
}

TEST(CatalogTest, OperationsOnForeignTableRejected) {
  Catalog catalog = MakeCatalog();
  Catalog other = MakeCatalog();
  Table* foreign =
      other.CreateTable("t", Schema::PaperSchema(1, 16)).value();
  EXPECT_TRUE(
      catalog.ExecuteStatement(foreign, Statement::Insert(
          Tuple({1}, {"p"}))).status().IsInvalidArgument());
  EXPECT_TRUE(
      catalog.ExecuteStatement(foreign, Statement::Select(Query::Point(0, 1)))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(catalog
                  .CreatePartialIndex(foreign, 0, ValueCoverage::Range(1, 5))
                  .IsInvalidArgument());
}

TEST(CatalogTest, TablesShareTheDiskButKeepPageNumbersDense) {
  Catalog catalog = MakeCatalog();
  Table* a = catalog.CreateTable("a", Schema::PaperSchema(1, 16)).value();
  Table* b = catalog.CreateTable("b", Schema::PaperSchema(1, 16)).value();
  Load(catalog, a, 2000, 100, 1);
  Load(catalog, b, 2000, 100, 2);
  EXPECT_GT(a->PageCount(), 1u);
  EXPECT_GT(b->PageCount(), 1u);
  // Queries stay separated per table.
  ASSERT_TRUE(catalog.CreatePartialIndex(a, 0, ValueCoverage::Range(1, 10))
                  .ok());
  Result<StatementResult> hit =
      catalog.ExecuteStatement(a, Statement::Select(Query::Point(0, 5)));
  ASSERT_TRUE(hit.ok());
  for (const Rid& rid : hit->rids) {
    EXPECT_TRUE(a->PageNumberOf(rid).ok());
  }
}

TEST(CatalogTest, BuffersOfDifferentTablesShareOneSpace) {
  CatalogOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 1500;
  options.space.max_pages_per_scan = 50;
  options.buffer.partition_pages = 10;
  options.buffer.initial_interval = 10.0;
  Catalog catalog(options);
  Table* hot = catalog.CreateTable("hot", Schema::PaperSchema(1, 16)).value();
  Table* cold =
      catalog.CreateTable("cold", Schema::PaperSchema(1, 16)).value();
  Load(catalog, hot, 2000, 1000, 3);
  Load(catalog, cold, 2000, 1000, 4);
  ASSERT_TRUE(
      catalog.CreatePartialIndex(hot, 0, ValueCoverage::Range(1, 100)).ok());
  ASSERT_TRUE(
      catalog.CreatePartialIndex(cold, 0, ValueCoverage::Range(1, 100)).ok());

  Rng rng(5);
  // Warm the cold table's buffer first, then hammer the hot table.
  for (int i = 0; i < 10; ++i) {
    const Value v = static_cast<Value>(rng.UniformInt(101, 1000));
    ASSERT_TRUE(
        catalog.ExecuteStatement(cold, Statement::Select(Query::Point(0, v)))
            .ok());
  }
  const size_t cold_entries_before =
      catalog.GetBuffer(cold, 0)->TotalEntries();
  for (int i = 0; i < 60; ++i) {
    const Value v = static_cast<Value>(rng.UniformInt(101, 1000));
    ASSERT_TRUE(
        catalog.ExecuteStatement(hot, Statement::Select(Query::Point(0, v)))
            .ok());
  }

  // The shared budget was never exceeded, and the hot table's buffer
  // displaced the cold one's partitions.
  EXPECT_LE(catalog.space()->TotalEntries(), 1500u);
  EXPECT_GT(catalog.GetBuffer(hot, 0)->TotalEntries(), 0u);
  EXPECT_LT(catalog.GetBuffer(cold, 0)->TotalEntries(),
            cold_entries_before);
}

TEST(CatalogTest, CrossTableQueriesStayExact) {
  CatalogOptions options;
  options.space.max_entries = 800;
  options.space.max_pages_per_scan = 10;
  options.buffer.partition_pages = 5;
  options.max_tuples_per_page = 20;
  Catalog catalog(options);
  Table* a = catalog.CreateTable("a", Schema::PaperSchema(1, 16)).value();
  Table* b = catalog.CreateTable("b", Schema::PaperSchema(1, 16)).value();
  Load(catalog, a, 1500, 500, 6);
  Load(catalog, b, 1500, 500, 7);
  ASSERT_TRUE(
      catalog.CreatePartialIndex(a, 0, ValueCoverage::Range(1, 50)).ok());
  ASSERT_TRUE(
      catalog.CreatePartialIndex(b, 0, ValueCoverage::Range(1, 50)).ok());

  auto ground_truth = [&](Table* table, Value v) {
    std::vector<Rid> rids;
    (void)table->heap().ForEachTuple([&](const Rid& rid, const Tuple& t) {
      if (t.IntValue(table->schema(), 0) == v) rids.push_back(rid);
    });
    std::sort(rids.begin(), rids.end());
    return rids;
  };

  Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    Table* table = rng.Bernoulli(0.5) ? a : b;
    const Value v = static_cast<Value>(rng.UniformInt(1, 500));
    Result<StatementResult> result =
        catalog.ExecuteStatement(table, Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(result.ok());
    std::vector<Rid> got = result->rids;
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, ground_truth(table, v)) << "query " << i;
  }
}

TEST(CatalogTest, TableIIAppliesAcrossTables) {
  // A miss on one table's column must advance the history interval of
  // buffers on *other tables* too — they share the space.
  CatalogOptions options;
  options.max_tuples_per_page = 10;
  Catalog catalog(options);
  Table* a = catalog.CreateTable("a", Schema::PaperSchema(1, 16)).value();
  Table* b = catalog.CreateTable("b", Schema::PaperSchema(1, 16)).value();
  Load(catalog, a, 200, 100, 9);
  Load(catalog, b, 200, 100, 10);
  ASSERT_TRUE(
      catalog.CreatePartialIndex(a, 0, ValueCoverage::Range(1, 10)).ok());
  ASSERT_TRUE(
      catalog.CreatePartialIndex(b, 0, ValueCoverage::Range(1, 10)).ok());

  IndexBuffer* buffer_b = catalog.GetBuffer(b, 0);
  const double interval_before = buffer_b->history().history()[0];
  // Miss on a.
  ASSERT_TRUE(
      catalog.ExecuteStatement(a, Statement::Select(Query::Point(0, 50)))
          .ok());
  EXPECT_GT(buffer_b->history().history()[0], interval_before);
}

TEST(CatalogTest, TunerPerTable) {
  CatalogOptions options;
  Catalog catalog(options);
  Table* a = catalog.CreateTable("a", Schema::PaperSchema(1, 16)).value();
  Load(catalog, a, 300, 100, 11);
  ASSERT_TRUE(
      catalog.CreatePartialIndex(a, 0, ValueCoverage::Range(1, 10)).ok());
  IndexTunerOptions tuner_options;
  tuner_options.index_threshold = 2;
  ASSERT_TRUE(catalog.AttachTuner(a, 0, tuner_options).ok());
  ASSERT_TRUE(
      catalog.ExecuteStatement(a, Statement::Select(Query::Point(0, 50))).ok());
  ASSERT_TRUE(
      catalog.ExecuteStatement(a, Statement::Select(Query::Point(0, 50))).ok());
  EXPECT_TRUE(catalog.GetIndex(a, 0)->Covers(50));
}

TEST(CatalogTest, ExecuteStatementStepsTunerForPointSelectsOnly) {
  CatalogOptions options;
  Catalog catalog(options);
  Table* a = catalog.CreateTable("a", Schema::PaperSchema(1, 16)).value();
  Load(catalog, a, 300, 100, 11);
  ASSERT_TRUE(
      catalog.CreatePartialIndex(a, 0, ValueCoverage::Range(1, 10)).ok());
  IndexTunerOptions tuner_options;
  tuner_options.index_threshold = 1;  // one step indexes the value
  ASSERT_TRUE(catalog.AttachTuner(a, 0, tuner_options).ok());
  const PartialIndex* index = catalog.GetIndex(a, 0);
  const size_t indexed_before = catalog.GetTuner(a, 0)->IndexedValueCount();

  // Range selects never step the tuner.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        catalog.ExecuteStatement(a, Statement::Select(Query::Range(0, 50, 60)))
            .ok());
  }
  // Neither does DML, whose unused query field reads as the point 0.
  Result<Rid> rid = AffectedRid(
      catalog.ExecuteStatement(a, Statement::Insert(Tuple({50}, {"x"}))));
  ASSERT_TRUE(rid.ok());
  rid = AffectedRid(catalog.ExecuteStatement(
      a, Statement::Update(rid.value(), Tuple({55}, {"y"}))));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(
      catalog.ExecuteStatement(a, Statement::Delete(rid.value())).ok());
  EXPECT_FALSE(index->Covers(0));
  EXPECT_FALSE(index->Covers(50));
  EXPECT_FALSE(index->Covers(55));
  EXPECT_EQ(catalog.GetTuner(a, 0)->IndexedValueCount(), indexed_before);

  // A point select steps it.
  ASSERT_TRUE(
      catalog.ExecuteStatement(a, Statement::Select(Query::Point(0, 50))).ok());
  EXPECT_TRUE(index->Covers(50));
  EXPECT_EQ(catalog.GetTuner(a, 0)->IndexedValueCount(), indexed_before + 1);
}

TEST(CatalogTest, DmlWithMaintenanceAcrossTables) {
  CatalogOptions options;
  options.max_tuples_per_page = 10;
  Catalog catalog(options);
  Table* a = catalog.CreateTable("a", Schema::PaperSchema(1, 16)).value();
  Load(catalog, a, 200, 100, 12);
  ASSERT_TRUE(
      catalog.CreatePartialIndex(a, 0, ValueCoverage::Range(1, 10)).ok());
  // Warm the buffer.
  ASSERT_TRUE(
      catalog.ExecuteStatement(a, Statement::Select(Query::Point(0, 50))).ok());

  Result<Rid> rid = AffectedRid(
      catalog.ExecuteStatement(a, Statement::Insert(Tuple({50}, {"x"}))));
  ASSERT_TRUE(rid.ok());
  Result<StatementResult> result =
      catalog.ExecuteStatement(a, Statement::Select(Query::Point(0, 50)));
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const Rid& r : result->rids) found = found || r == rid.value();
  EXPECT_TRUE(found);

  ASSERT_TRUE(catalog.ExecuteStatement(a, Statement::Delete(rid.value())).ok());
  result = catalog.ExecuteStatement(a, Statement::Select(Query::Point(0, 50)));
  ASSERT_TRUE(result.ok());
  for (const Rid& r : result->rids) EXPECT_NE(r, rid.value());
}

}  // namespace
}  // namespace aib
