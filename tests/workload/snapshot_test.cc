#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <filesystem>
#include <sstream>

#include "../test_util.h"
#include "common/rng.h"
#include "core/consistency.h"
#include "workload/catalog.h"

namespace aib {
namespace {

using ::aib::testing::AffectedRid;

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("aib_snapshot_" + tag + ".bin"))
      .string();
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  CatalogOptions Options() {
    CatalogOptions options;
    options.max_tuples_per_page = 10;
    options.space.max_entries = 2000;
    options.buffer.partition_pages = 5;
    return options;
  }

  /// A catalog with one loaded table and a partial index on [1, 50].
  std::unique_ptr<Catalog> MakeCatalog() {
    auto catalog = std::make_unique<Catalog>(Options());
    Table* table =
        catalog->CreateTable("t", Schema::PaperSchema(1, 32)).value();
    Rng rng(55);
    for (int i = 0; i < 1000; ++i) {
      Tuple tuple({static_cast<Value>(rng.UniformInt(1, 500))},
                  {"payload-" + std::to_string(i)});
      EXPECT_TRUE(catalog->LoadTuple(table, tuple).ok());
    }
    EXPECT_TRUE(
        catalog->CreatePartialIndex(table, 0, ValueCoverage::Range(1, 50))
            .ok());
    return catalog;
  }

  /// Warms the Index Buffer with misses on uncovered values.
  static void Warm(Catalog* catalog) {
    Table* table = catalog->GetTable("t");
    for (Value v = 100; v < 110; ++v) {
      EXPECT_TRUE(catalog->ExecuteStatement(
          table, Statement::Select(Query::Point(0, v))).ok());
    }
  }

  std::unique_ptr<Catalog> MakeWarmCatalog() {
    auto catalog = MakeCatalog();
    Warm(catalog.get());
    return catalog;
  }

  std::string path_;
};

TEST_F(SnapshotTest, RoundTripPreservesDataAndIndexes) {
  auto original = MakeWarmCatalog();
  Table* table = original->GetTable("t");
  const size_t tuple_count = table->TupleCount();
  const size_t page_count = table->PageCount();

  ASSERT_TRUE(original->SaveSnapshot(path_).ok());
  Result<std::unique_ptr<Catalog>> loaded_or =
      Catalog::LoadSnapshot(path_, Options());
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  std::unique_ptr<Catalog> loaded = std::move(loaded_or).value();

  Table* restored = loaded->GetTable("t");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->TupleCount(), tuple_count);
  EXPECT_EQ(restored->PageCount(), page_count);

  // Schema survived.
  EXPECT_EQ(restored->schema().num_columns(), 2u);
  EXPECT_EQ(restored->schema().column(0).name, "A");

  // The partial index was rebuilt with the same coverage.
  PartialIndex* index = loaded->GetIndex(restored, 0);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->coverage().ToString(), "[1,50]");
  EXPECT_EQ(index->EntryCount(),
            original->GetIndex(table, 0)->EntryCount());

  // Query results identical to the original.
  for (Value v : {25, 100, 105, 400}) {
    Result<StatementResult> a = original->ExecuteStatement(
        table, Statement::Select(Query::Point(0, v)));
    Result<StatementResult> b = loaded->ExecuteStatement(
        restored, Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->rids.size(), b->rids.size()) << "value " << v;
  }
}

TEST_F(SnapshotTest, IndexBufferComesBackEmptyAndReAdapts) {
  auto original = MakeWarmCatalog();
  Table* table = original->GetTable("t");
  ASSERT_GT(original->GetBuffer(table, 0)->TotalEntries(), 0u);

  ASSERT_TRUE(original->SaveSnapshot(path_).ok());
  auto loaded = std::move(Catalog::LoadSnapshot(path_, Options())).value();
  Table* restored = loaded->GetTable("t");

  // The Index Buffer is recovery-free: it comes back with no entries in
  // either tier and C[p] as a freshly created index has it — the live
  // tuples of page p that the partial index does not cover.
  IndexBuffer* buffer = loaded->GetBuffer(restored, 0);
  ASSERT_NE(buffer, nullptr);
  EXPECT_EQ(buffer->TotalEntries(), 0u);
  EXPECT_EQ(buffer->PartitionCount(), 0u);
  EXPECT_EQ(buffer->ColdEntries(), 0u);
  EXPECT_EQ(buffer->ColdPartitionCount(), 0u);
  for (size_t page = 0; page < restored->PageCount(); ++page) {
    size_t uncovered = 0;
    ASSERT_TRUE(restored->heap()
                    .ForEachTupleOnPage(
                        page,
                        [&](const Rid&, const Tuple& tuple) {
                          const Value v =
                              tuple.IntValue(restored->schema(), 0);
                          if (v < 1 || v > 50) ++uncovered;
                        })
                    .ok());
    EXPECT_EQ(buffer->counters().Get(page), uncovered) << "page " << page;
  }
  ASSERT_TRUE(CheckSpaceConsistency(*restored, *loaded->space()).ok());

  // The first miss re-indexes by scanning; the next one skips the pages
  // it covered.
  Result<StatementResult> first = loaded->ExecuteStatement(
      restored, Statement::Select(Query::Point(0, 200)));
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.pages_scanned, 0u);
  EXPECT_GT(buffer->TotalEntries(), 0u);
  Result<StatementResult> second = loaded->ExecuteStatement(
      restored, Statement::Select(Query::Point(0, 201)));
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->stats.pages_skipped, 0u);
  ASSERT_TRUE(CheckSpaceConsistency(*restored, *loaded->space()).ok());
}

// A snapshot carries durable state only: warming the Index Buffers —
// misses that index pages, a demotion into the cold tier — changes no
// byte of it.
TEST_F(SnapshotTest, SnapshotCarriesNoAdaptiveState) {
  auto catalog = MakeCatalog();
  const auto save = [&] {
    std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
    EXPECT_TRUE(catalog->SaveSnapshotTo(out).ok());
    return out.str();
  };
  const std::string before = save();

  Warm(catalog.get());
  IndexBuffer* buffer = catalog->GetBuffer(catalog->GetTable("t"), 0);
  ASSERT_NE(buffer, nullptr);
  ASSERT_GT(buffer->PartitionCount(), 0u);
  ASSERT_GT(buffer->DemotePartition(buffer->PartitionSnapshot().front().id),
            0u);
  ASSERT_GT(buffer->ColdEntries(), 0u);
  ASSERT_GT(buffer->TotalEntries(), 0u);

  EXPECT_TRUE(save() == before) << "snapshot bytes changed";
}

// The restart acceptance gate: a catalog restored from a snapshot of one
// whose buffer holds a demoted partition and a post-demotion hot sibling
// answers every probe with exactly that original's rids, although its own
// buffer starts empty.
TEST_F(SnapshotTest, WarmRestartAnswersBitIdenticalToNeverEvictedTwin) {
  // Gradual coverage (small I_MAX) so a partition can straddle the covered
  // frontier: some pages indexed, some not.
  CatalogOptions options = Options();
  options.space.max_pages_per_scan = 17;
  auto original = std::make_unique<Catalog>(options);
  Table* table =
      original->CreateTable("t", Schema::PaperSchema(1, 32)).value();
  Rng rng(55);
  for (int i = 0; i < 1000; ++i) {
    Tuple tuple({static_cast<Value>(rng.UniformInt(1, 500))},
                {"payload-" + std::to_string(i)});
    ASSERT_TRUE(original->LoadTuple(table, tuple).ok());
  }
  ASSERT_TRUE(
      original->CreatePartialIndex(table, 0, ValueCoverage::Range(1, 50))
          .ok());
  ASSERT_TRUE(original->ExecuteStatement(
      table, Statement::Select(Query::Point(0, 200))).ok());
  IndexBuffer* buffer = original->GetBuffer(table, 0);
  ASSERT_NE(buffer, nullptr);

  // Find a hot partition with buffered entries and an as-yet-uncovered
  // page in its range, demote it, then cover that page the way an
  // indexing scan would — the same partition id now has a cold run AND a
  // hot sibling, and the original answers from both tiers.
  const size_t P = buffer->options().partition_pages;
  size_t victim = SIZE_MAX;
  size_t uncovered_page = SIZE_MAX;
  for (const IndexBuffer::PartitionStats& stats :
       buffer->PartitionSnapshot()) {
    if (stats.entries == 0) continue;
    for (size_t page = stats.id * P;
         page < (stats.id + 1) * P && page < table->PageCount(); ++page) {
      if (buffer->counters().Get(page) > 0) {
        victim = stats.id;
        uncovered_page = page;
        break;
      }
    }
    if (victim != SIZE_MAX) break;
  }
  ASSERT_NE(victim, SIZE_MAX) << "no partition straddles the frontier";
  ASSERT_GT(buffer->DemotePartition(victim), 0u);
  const Schema& schema = table->schema();
  ASSERT_TRUE(table->heap()
                  .ForEachTuple([&](const Rid& rid, const Tuple& tuple) {
                    if (rid.page_id != uncovered_page) return;
                    const Value v = tuple.IntValue(schema, 0);
                    if (v >= 1 && v <= 50) return;  // partial-index covered
                    buffer->AddTuple(uncovered_page, v, rid);
                  })
                  .ok());
  buffer->MarkPageIndexed(uncovered_page);
  ASSERT_GT(buffer->ColdPartitionCount(), 0u);
  ASSERT_TRUE(buffer->partitions().contains(victim));  // the hot sibling

  ASSERT_TRUE(original->SaveSnapshot(path_).ok());
  auto loaded = std::move(Catalog::LoadSnapshot(path_, options)).value();
  auto reloaded = std::move(Catalog::LoadSnapshot(path_, options)).value();
  Table* restored = loaded->GetTable("t");
  Table* restored_again = reloaded->GetTable("t");
  ASSERT_TRUE(CheckSpaceConsistency(*restored, *loaded->space()).ok());

  // Point probes across covered, buffered, and unbuffered values, plus
  // ranges spanning tier boundaries. Exact rids, not just counts. Algorithm
  // 1 emits buffer matches before scanned ones, so the order within an
  // answer follows the buffer's state: the original (promoting its cold
  // run as it answers) and the restored catalog (re-indexing from scans)
  // must hold the same rids, and two loads of one snapshot must emit them
  // in the same order.
  const auto check = [&](const Query& query, const std::string& label) {
    Result<StatementResult> a =
        original->ExecuteStatement(table, Statement::Select(query));
    Result<StatementResult> b =
        loaded->ExecuteStatement(restored, Statement::Select(query));
    Result<StatementResult> c = reloaded->ExecuteStatement(
        restored_again, Statement::Select(query));
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(b->rids, c->rids) << label;
    std::vector<Rid> expected = a->rids;
    std::vector<Rid> actual = b->rids;
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << label;
  };
  for (Value v = 1; v <= 500; v += 7) {
    check(Query::Point(0, v), "value " + std::to_string(v));
  }
  for (Value lo : {1, 40, 95, 300}) {
    check(Query::Range(0, lo, lo + 60),
          "range [" + std::to_string(lo) + "," + std::to_string(lo + 60) +
              "]");
  }
}

TEST_F(SnapshotTest, MultipleTablesRoundTrip) {
  auto catalog = std::make_unique<Catalog>(Options());
  Table* a = catalog->CreateTable("alpha", Schema::PaperSchema(1, 16))
                 .value();
  Table* b =
      catalog->CreateTable("beta", Schema::PaperSchema(2, 16)).value();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(catalog->LoadTuple(a, Tuple({i % 100}, {"a"})).ok());
    ASSERT_TRUE(
        catalog->LoadTuple(b, Tuple({i % 50, i % 25}, {"b"})).ok());
  }
  ASSERT_TRUE(
      catalog->CreatePartialIndex(a, 0, ValueCoverage::Range(0, 9)).ok());
  ASSERT_TRUE(
      catalog->CreatePartialIndex(b, 1, ValueCoverage::Range(0, 4),
                                  IndexStructureKind::kHash)
          .ok());

  ASSERT_TRUE(catalog->SaveSnapshot(path_).ok());
  auto loaded = std::move(Catalog::LoadSnapshot(path_, Options())).value();
  EXPECT_EQ(loaded->TableNames(),
            (std::vector<std::string>{"alpha", "beta"}));
  Table* beta = loaded->GetTable("beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->TupleCount(), 300u);
  PartialIndex* beta_index = loaded->GetIndex(beta, 1);
  ASSERT_NE(beta_index, nullptr);
  EXPECT_EQ(beta_index->structure_kind(), IndexStructureKind::kHash);
  EXPECT_EQ(beta_index->coverage().ToString(), "[0,4]");
}

TEST_F(SnapshotTest, DmlAfterLoadStaysConsistent) {
  auto original = MakeWarmCatalog();
  ASSERT_TRUE(original->SaveSnapshot(path_).ok());
  auto loaded = std::move(Catalog::LoadSnapshot(path_, Options())).value();
  Table* table = loaded->GetTable("t");

  Result<Rid> rid = AffectedRid(
      loaded->ExecuteStatement(table, Statement::Insert(Tuple({77}, {"new"}))));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(loaded->ExecuteStatement(
      table, Statement::Select(Query::Point(0, 77))).ok());
  ASSERT_TRUE(
      loaded->ExecuteStatement(table, Statement::Delete(rid.value())).ok());
  ASSERT_TRUE(CheckSpaceConsistency(*table, *loaded->space()).ok());
}

// The heap's free-space list is derived state, not saved: a loaded table
// rebuilds it from its pages, so its next inserts land in the holes the
// deletes before the save left, on the same pages the original's do.
TEST_F(SnapshotTest, LoadedTableReusesTheHolesOfDeletes) {
  auto original = MakeWarmCatalog();
  Table* table = original->GetTable("t");
  const std::vector<size_t> holes = {3, 10, 42};  // 10 tuples per page
  for (const size_t page : holes) {
    const Rid victim{table->heap().PageIdAt(page), 4};
    ASSERT_TRUE(
        original->ExecuteStatement(table, Statement::Delete(victim)).ok());
  }
  const size_t pages = table->PageCount();
  ASSERT_TRUE(original->SaveSnapshot(path_).ok());
  auto loaded = std::move(Catalog::LoadSnapshot(path_, Options())).value();
  Table* restored = loaded->GetTable("t");

  for (size_t i = 0; i <= holes.size(); ++i) {
    const Tuple tuple({static_cast<Value>(200 + i)}, {"refill"});
    Result<Rid> mine =
        AffectedRid(loaded->ExecuteStatement(restored, Statement::Insert(tuple)));
    Result<Rid> theirs =
        AffectedRid(original->ExecuteStatement(table, Statement::Insert(tuple)));
    ASSERT_TRUE(mine.ok() && theirs.ok());
    EXPECT_EQ(mine.value(), theirs.value());
    // The holes first, in page order; then, with every page at its tuple
    // cap, a fresh tail page.
    EXPECT_EQ(restored->PageNumberOf(mine.value()).value(),
              i < holes.size() ? holes[i] : pages);
  }
  EXPECT_EQ(restored->PageCount(), pages + 1);
  EXPECT_TRUE(CheckSpaceConsistency(*restored, *loaded->space()).ok());
}

TEST_F(SnapshotTest, LoadMissingFileFails) {
  EXPECT_TRUE(Catalog::LoadSnapshot("/nonexistent/aib.bin", Options())
                  .status()
                  .IsNotFound());
}

TEST_F(SnapshotTest, LoadGarbageFails) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a snapshot";
  }
  EXPECT_TRUE(
      Catalog::LoadSnapshot(path_, Options()).status().IsCorruption());
}

TEST_F(SnapshotTest, LoadTruncatedSnapshotFails) {
  auto original = MakeWarmCatalog();
  ASSERT_TRUE(original->SaveSnapshot(path_).ok());
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size / 2);
  EXPECT_TRUE(
      Catalog::LoadSnapshot(path_, Options()).status().IsCorruption());
}

TEST_F(SnapshotTest, LoadUnknownIndexStructureFails) {
  auto original = MakeWarmCatalog();
  std::stringstream snapshot(std::ios::in | std::ios::out |
                             std::ios::binary);
  ASSERT_TRUE(original->SaveSnapshotTo(snapshot).ok());
  std::string bytes = snapshot.str();
  // The index record follows the raw pages (magic, u32 page size, u64 page
  // count, pages): u16 column 0, u8 structure kind, u32 one interval, i32
  // lo = 1, i32 hi = 50.
  uint32_t page_size = 0;
  uint64_t page_count = 0;
  std::memcpy(&page_size, bytes.data() + 8, sizeof(page_size));
  std::memcpy(&page_count, bytes.data() + 12, sizeof(page_count));
  const char record[] = {0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 50, 0, 0, 0};
  const size_t at = bytes.find(std::string(record, sizeof(record)),
                               20 + page_count * page_size);
  ASSERT_NE(at, std::string::npos);
  bytes[at + 2] = 2;  // no structure has kind 2
  std::stringstream patched(bytes, std::ios::in | std::ios::binary);
  EXPECT_TRUE(Catalog::LoadSnapshotFrom(patched, Options())
                  .status()
                  .IsCorruption());
}

}  // namespace
}  // namespace aib
