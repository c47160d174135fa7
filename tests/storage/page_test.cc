#include "storage/page.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace aib {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string AsString(std::span<const uint8_t> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

TEST(PageTest, FreshPageIsEmpty) {
  Page page(512);
  EXPECT_EQ(page.slot_count(), 0);
  EXPECT_EQ(page.live_count(), 0);
  EXPECT_GT(page.FreeSpace(), 0u);
}

TEST(PageTest, InsertReadRoundTrip) {
  Page page(512);
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("hello"), &slot).ok());
  EXPECT_EQ(slot, 0);
  std::span<const uint8_t> record;
  ASSERT_TRUE(page.Read(slot, &record).ok());
  EXPECT_EQ(AsString(record), "hello");
}

TEST(PageTest, SlotIdsAreSequential) {
  Page page(512);
  for (int i = 0; i < 5; ++i) {
    SlotId slot;
    ASSERT_TRUE(page.Insert(Bytes("r" + std::to_string(i)), &slot).ok());
    EXPECT_EQ(slot, i);
  }
  EXPECT_EQ(page.slot_count(), 5);
  EXPECT_EQ(page.live_count(), 5);
}

TEST(PageTest, InsertFailsWhenFull) {
  Page page(128);
  const std::vector<uint8_t> record(40, 0xab);
  SlotId slot;
  Status status = Status::Ok();
  int inserted = 0;
  while ((status = page.Insert(record, &slot)).ok()) ++inserted;
  EXPECT_TRUE(status.IsNoSpace());
  EXPECT_GT(inserted, 0);
  EXPECT_EQ(page.live_count(), inserted);
}

TEST(PageTest, DeleteTombstones) {
  Page page(512);
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("doomed"), &slot).ok());
  ASSERT_TRUE(page.Delete(slot).ok());
  EXPECT_EQ(page.live_count(), 0);
  EXPECT_FALSE(page.IsLive(slot));
  std::span<const uint8_t> record;
  EXPECT_TRUE(page.Read(slot, &record).IsNotFound());
}

TEST(PageTest, DoubleDeleteFails) {
  Page page(512);
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("x"), &slot).ok());
  ASSERT_TRUE(page.Delete(slot).ok());
  EXPECT_TRUE(page.Delete(slot).IsNotFound());
}

TEST(PageTest, DeleteOutOfRangeFails) {
  Page page(512);
  EXPECT_TRUE(page.Delete(3).IsNotFound());
}

TEST(PageTest, SlotIdsStableAcrossDeletes) {
  Page page(512);
  SlotId s0, s1, s2;
  ASSERT_TRUE(page.Insert(Bytes("zero"), &s0).ok());
  ASSERT_TRUE(page.Insert(Bytes("one"), &s1).ok());
  ASSERT_TRUE(page.Delete(s0).ok());
  ASSERT_TRUE(page.Insert(Bytes("two"), &s2).ok());
  // The tombstoned slot is not recycled.
  EXPECT_EQ(s2, 2);
  std::span<const uint8_t> record;
  ASSERT_TRUE(page.Read(s1, &record).ok());
  EXPECT_EQ(AsString(record), "one");
}

TEST(PageTest, UpdateInPlaceSameSize) {
  Page page(512);
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("abcde"), &slot).ok());
  ASSERT_TRUE(page.UpdateInPlace(slot, Bytes("vwxyz")).ok());
  std::span<const uint8_t> record;
  ASSERT_TRUE(page.Read(slot, &record).ok());
  EXPECT_EQ(AsString(record), "vwxyz");
}

TEST(PageTest, UpdateInPlaceShrinks) {
  Page page(512);
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("longer-record"), &slot).ok());
  ASSERT_TRUE(page.UpdateInPlace(slot, Bytes("tiny")).ok());
  std::span<const uint8_t> record;
  ASSERT_TRUE(page.Read(slot, &record).ok());
  EXPECT_EQ(AsString(record), "tiny");
}

TEST(PageTest, UpdateInPlaceRejectsGrowth) {
  Page page(512);
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("tiny"), &slot).ok());
  EXPECT_TRUE(page.UpdateInPlace(slot, Bytes("much-longer")).IsNoSpace());
  std::span<const uint8_t> record;
  ASSERT_TRUE(page.Read(slot, &record).ok());
  EXPECT_EQ(AsString(record), "tiny");  // unchanged on failure
}

TEST(PageTest, EmptyRecordsInsertAndUpdate) {
  Page page(512);
  const std::vector<uint8_t> empty;  // data() may be null
  SlotId empty_slot;
  ASSERT_TRUE(page.Insert(empty, &empty_slot).ok());
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("abc"), &slot).ok());
  ASSERT_TRUE(page.UpdateInPlace(slot, empty).ok());
  std::span<const uint8_t> record;
  ASSERT_TRUE(page.Read(empty_slot, &record).ok());
  EXPECT_TRUE(record.empty());
  ASSERT_TRUE(page.Read(slot, &record).ok());
  EXPECT_TRUE(record.empty());
  EXPECT_EQ(page.live_count(), 2);
}

TEST(PageTest, UpdateDeletedSlotFails) {
  Page page(512);
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("x"), &slot).ok());
  ASSERT_TRUE(page.Delete(slot).ok());
  EXPECT_TRUE(page.UpdateInPlace(slot, Bytes("y")).IsNotFound());
}

TEST(PageTest, FreeSpaceDecreasesWithInserts) {
  Page page(512);
  const uint32_t initial = page.FreeSpace();
  SlotId slot;
  ASSERT_TRUE(page.Insert(Bytes("0123456789"), &slot).ok());
  EXPECT_LT(page.FreeSpace(), initial);
}

TEST(PageTest, ManySmallRecordsFillExactly) {
  Page page(8192);
  int count = 0;
  SlotId slot;
  while (page.Insert(Bytes("12345678"), &slot).ok()) ++count;
  // 8 bytes payload + 4 bytes slot = 12 per record, ~8186 usable.
  EXPECT_GT(count, 600);
  EXPECT_EQ(page.live_count(), count);
  // All still readable.
  for (SlotId i = 0; i < page.slot_count(); ++i) {
    std::span<const uint8_t> record;
    ASSERT_TRUE(page.Read(i, &record).ok());
    EXPECT_EQ(AsString(record), "12345678");
  }
}

}  // namespace
}  // namespace aib
