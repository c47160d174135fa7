// Partial-index set-up: one walk of the table builds the index and counts
// its Index Buffer's C[p]. These tests check that walk against a reference
// computed here from whole decoded tuples (ForEachTupleOnPage), on a heap
// that deletes, page compactions and relocating updates have reshaped.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/page_counters.h"
#include "workload/catalog.h"

namespace aib {
namespace {

struct Reference {
  std::map<Value, std::vector<Rid>> postings;  // covered key -> rids
  std::vector<uint32_t> uncovered;             // C[p]
};

Reference ReferenceOf(const Table& table, ColumnId column,
                      const ValueCoverage& coverage) {
  Reference ref;
  ref.uncovered.assign(table.PageCount(), 0);
  for (size_t page = 0; page < table.PageCount(); ++page) {
    const auto visit = [&](const Rid& rid, const Tuple& tuple) {
      const Value v = tuple.IntValue(table.schema(), column);
      if (coverage.Covers(v)) {
        ref.postings[v].push_back(rid);
      } else {
        ++ref.uncovered[page];
      }
    };
    EXPECT_TRUE(table.heap().ForEachTupleOnPage(page, visit).ok());
  }
  return ref;
}

std::vector<uint32_t> CountersOf(const PageCounters& counters) {
  std::vector<uint32_t> out(counters.size());
  for (size_t page = 0; page < out.size(); ++page) {
    out[page] = counters.Get(page);
  }
  return out;
}

uint32_t DeadBytesOf(BufferPool& pool, PageId page_id) {
  uint32_t dead = 0;
  const auto read = [&](const Page& page) { dead = page.DeadBytes(); };
  EXPECT_TRUE(pool.VisitPage(page_id, read).ok());
  return dead;
}

Tuple RandomTuple(Rng& rng, size_t max_payload) {
  return Tuple({static_cast<Value>(rng.UniformInt(1, 200)),
                static_cast<Value>(rng.UniformInt(1, 200))},
               {std::string(static_cast<size_t>(rng.UniformInt(
                                1, static_cast<int64_t>(max_payload))),
                            'x')});
}

class IndexBuildTest : public ::testing::TestWithParam<IndexStructureKind> {
 protected:
  /// Loads 3,000 rows, then runs 3,000 seeded deletes, inserts and
  /// updates straight on the heap, and checks that inserts compacted pages
  /// and updates relocated rows.
  void SetUp() override {
    table_ = catalog_.CreateTable("t", Schema::PaperSchema(2, 300)).value();
    Rng rng(2029);
    std::vector<Rid> live;
    for (int i = 0; i < 3000; ++i) {
      const Result<Rid> rid = catalog_.LoadTuple(table_, RandomTuple(rng, 150));
      ASSERT_TRUE(rid.ok());
      live.push_back(rid.value());
    }
    HeapFile& heap = table_->heap();
    int compactions = 0;
    int relocations = 0;
    for (int op = 0; op < 3000; ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      const size_t victim =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      if (kind < 4) {
        ASSERT_TRUE(heap.Delete(live[victim]).ok());
        live[victim] = live.back();
        live.pop_back();
      } else if (kind < 7) {
        const Tuple tuple = RandomTuple(rng, 300);
        const size_t target = heap.InsertTarget(tuple.SerializedSize());
        const PageId page_id = heap.PageIdAt(target);
        const bool had_dead = page_id != kInvalidPageId &&
                              DeadBytesOf(catalog_.buffer_pool(), page_id) > 0;
        const Result<Rid> rid = heap.Insert(tuple, target);
        ASSERT_TRUE(rid.ok());
        if (had_dead && rid->page_id == page_id &&
            DeadBytesOf(catalog_.buffer_pool(), page_id) == 0) {
          ++compactions;
        }
        live.push_back(rid.value());
      } else {
        const Result<Rid> rid =
            heap.Update(live[victim], RandomTuple(rng, 300));
        ASSERT_TRUE(rid.ok());
        if (rid.value() != live[victim]) ++relocations;
        live[victim] = rid.value();
      }
    }
    EXPECT_GT(compactions, 0);
    EXPECT_GT(relocations, 0);
    coverage_[0] = ValueCoverage::Range(1, 60);
    coverage_[1].AddRange(1, 30);
    coverage_[1].AddRange(150, 170);
  }

  Catalog catalog_;
  Table* table_ = nullptr;
  ValueCoverage coverage_[2];
};

TEST_P(IndexBuildTest, OneWalkMatchesThePerRecordReference) {
  for (ColumnId column = 0; column < 2; ++column) {
    const Reference ref = ReferenceOf(*table_, column, coverage_[column]);
    ASSERT_TRUE(catalog_
                    .CreatePartialIndex(table_, column, coverage_[column],
                                        GetParam())
                    .ok());
    const PartialIndex* index = catalog_.GetIndex(table_, column);
    IndexBuffer* buffer = catalog_.GetBuffer(table_, column);
    ASSERT_NE(index, nullptr);
    ASSERT_NE(buffer, nullptr);

    size_t entries = 0;
    for (Value v = 0; v <= 201; ++v) {
      std::vector<Rid> rids;
      index->Lookup(v, &rids);
      const auto it = ref.postings.find(v);
      EXPECT_EQ(rids, it == ref.postings.end() ? std::vector<Rid>{}
                                               : it->second)
          << "column " << column << " value " << v;
      entries += rids.size();
    }
    EXPECT_EQ(index->EntryCount(), entries);
    EXPECT_EQ(CountersOf(buffer->counters()), ref.uncovered);

    // The repair fallback counts through the same walk.
    buffer->counters().Reset({});
    ASSERT_TRUE(buffer->InitCounters().ok());
    EXPECT_EQ(CountersOf(buffer->counters()), ref.uncovered);
  }
}

TEST_P(IndexBuildTest, MalformedRecordRegistersNothing) {
  // A live record with one trailing byte in a middle page: every column
  // decodes, only the whole-record check rejects it.
  std::vector<uint8_t> record =
      Tuple({7, 7}, {"x"}).Serialize(table_->schema());
  record.push_back(0xff);
  const PageId page_id = table_->heap().PageIdAt(table_->PageCount() / 2);
  Page* page = catalog_.buffer_pool().FetchPage(page_id).value();
  SlotId slot;
  ASSERT_TRUE(page->Insert(record, &slot).ok());
  ASSERT_TRUE(catalog_.buffer_pool().UnpinPage(page_id, /*dirty=*/true).ok());
  const Status expected =
      Tuple::Deserialize(table_->schema(), record).status();
  ASSERT_TRUE(expected.IsCorruption());

  const Status created =
      catalog_.CreatePartialIndex(table_, 0, coverage_[0], GetParam());
  EXPECT_EQ(created.code(), expected.code());
  EXPECT_EQ(created.message(), expected.message());
  EXPECT_EQ(catalog_.GetIndex(table_, 0), nullptr);
  EXPECT_EQ(catalog_.executor(table_)->GetIndex(0), nullptr);
  EXPECT_TRUE(catalog_.space()->buffers().empty());
}

INSTANTIATE_TEST_SUITE_P(Kinds, IndexBuildTest,
                         ::testing::Values(IndexStructureKind::kBTree,
                                           IndexStructureKind::kHash),
                         [](const auto& info) {
                           return info.param == IndexStructureKind::kBTree
                                      ? std::string("BTree")
                                      : std::string("Hash");
                         });

}  // namespace
}  // namespace aib
