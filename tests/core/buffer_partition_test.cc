#include "core/buffer_partition.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "btree/cold_run.h"
#include "common/rng.h"

namespace aib {
namespace {

Rid R(uint32_t page, uint16_t slot = 0) { return Rid{page, slot}; }

TEST(BufferPartitionTest, FreshPartitionEmpty) {
  BufferPartition p(3, IndexStructureKind::kBTree);
  EXPECT_EQ(p.id(), 3u);
  EXPECT_EQ(p.EntryCount(), 0u);
  EXPECT_EQ(p.CoveredPageCount(), 0u);
}

TEST(BufferPartitionTest, AddEntryCoversPage) {
  BufferPartition p(0, IndexStructureKind::kBTree);
  p.AddEntry(5, 100, R(5, 1));
  EXPECT_TRUE(p.CoversPage(5));
  EXPECT_FALSE(p.CoversPage(6));
  EXPECT_EQ(p.EntryCount(), 1u);
  EXPECT_EQ(p.CoveredPageCount(), 1u);
}

TEST(BufferPartitionTest, MultipleEntriesSamePage) {
  BufferPartition p(0, IndexStructureKind::kBTree);
  p.AddEntry(5, 100, R(5, 1));
  p.AddEntry(5, 200, R(5, 2));
  EXPECT_EQ(p.EntryCount(), 2u);
  EXPECT_EQ(p.CoveredPageCount(), 1u);
  EXPECT_EQ(p.page_entries().at(5), 2u);
}

TEST(BufferPartitionTest, LookupFindsEntries) {
  BufferPartition p(0, IndexStructureKind::kBTree);
  p.AddEntry(5, 100, R(5, 1));
  p.AddEntry(6, 100, R(6, 1));
  std::vector<Rid> out;
  p.Lookup(100, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(BufferPartitionTest, RemoveEntryDecrementsPageCount) {
  BufferPartition p(0, IndexStructureKind::kBTree);
  p.AddEntry(5, 100, R(5, 1));
  p.AddEntry(5, 200, R(5, 2));
  EXPECT_TRUE(p.RemoveEntry(5, 100, R(5, 1)));
  EXPECT_EQ(p.page_entries().at(5), 1u);
  EXPECT_FALSE(p.RemoveEntry(5, 100, R(5, 1)));  // already gone
}

TEST(BufferPartitionTest, PageStaysCoveredAtZeroEntries) {
  // All unindexed tuples of the page were deleted: the page is still fully
  // indexed and must remain skippable.
  BufferPartition p(0, IndexStructureKind::kBTree);
  p.AddEntry(5, 100, R(5, 1));
  EXPECT_TRUE(p.RemoveEntry(5, 100, R(5, 1)));
  EXPECT_TRUE(p.CoversPage(5));
  EXPECT_EQ(p.page_entries().at(5), 0u);
}

TEST(BufferPartitionTest, CoverPageWithoutEntries) {
  BufferPartition p(0, IndexStructureKind::kBTree);
  p.CoverPage(9);
  EXPECT_TRUE(p.CoversPage(9));
  EXPECT_EQ(p.EntryCount(), 0u);
  EXPECT_EQ(p.CoveredPageCount(), 1u);
  // CoverPage must not reset an existing entry count.
  p.AddEntry(9, 1, R(9, 0));
  p.CoverPage(9);
  EXPECT_EQ(p.page_entries().at(9), 1u);
}

TEST(BufferPartitionTest, BenefitScalesWithPagesAndInterval) {
  BufferPartition p(0, IndexStructureKind::kBTree);
  p.AddEntry(1, 10, R(1));
  p.AddEntry(2, 20, R(2));
  p.AddEntry(3, 30, R(3));
  EXPECT_DOUBLE_EQ(p.Benefit(1.0), 3.0);   // X_p / T_B
  EXPECT_DOUBLE_EQ(p.Benefit(10.0), 0.3);  // rarely used -> lower benefit
}

TEST(BufferPartitionTest, ScanRange) {
  BufferPartition p(0, IndexStructureKind::kBTree);
  for (Value v = 0; v < 50; ++v) {
    p.AddEntry(static_cast<size_t>(v), v, R(static_cast<uint32_t>(v)));
  }
  size_t count = 0;
  p.Scan(10, 19, [&](Value, const Rid&) { ++count; });
  EXPECT_EQ(count, 10u);
}

TEST(BufferPartitionTest, HashStructureVariant) {
  BufferPartition p(0, IndexStructureKind::kHash);
  p.AddEntry(5, 100, R(5, 1));
  std::vector<Rid> out;
  p.Lookup(100, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], R(5, 1));
}

std::vector<std::pair<Value, Rid>> EntriesOf(const BufferPartition& p) {
  std::vector<std::pair<Value, Rid>> out;
  p.ForEachEntry(
      [&](Value key, const Rid& rid) { out.emplace_back(key, rid); });
  return out;
}

// A cold run comes back in key order: one insert per entry would leave every
// leaf of the empty hot B+-tree half full (~29 B/entry); the bulk build
// fills them, and keeps each key's rids in order.
TEST(BufferPartitionTest, PromotionIntoAnEmptyPartitionPacksLeaves) {
  BufferPartition hot(2, IndexStructureKind::kBTree);
  Rng rng(29);
  for (uint32_t i = 0; i < 100000; ++i) {
    const Value key = static_cast<Value>(rng.UniformInt(0, 49999));
    hot.AddEntry(i / 30, key, R(i / 30, static_cast<uint16_t>(i % 30)));
  }
  const std::unique_ptr<BufferPartition> cold = BufferPartition::Demoted(hot);
  ASSERT_NE(cold->cold_run(), nullptr);

  BufferPartition promoted(2, IndexStructureKind::kBTree);
  promoted.AbsorbOlder(*cold);
  EXPECT_EQ(EntriesOf(promoted), EntriesOf(hot));
  EXPECT_EQ(promoted.page_entries(), hot.page_entries());
  EXPECT_LE(static_cast<double>(promoted.ApproxBytes()) /
                promoted.EntryCount(),
            24.0);
}

}  // namespace
}  // namespace aib
