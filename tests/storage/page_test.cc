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

TEST(PageTest, InsertCompactsToReuseDeletedAndShrunkBytes) {
  Page page(256);
  const std::vector<uint8_t> record(40, 0xab);
  std::vector<SlotId> slots;
  SlotId slot;
  while (page.Insert(record, &slot).ok()) slots.push_back(slot);
  ASSERT_GE(slots.size(), 4u);
  const uint32_t full = page.FreeSpace();
  ASSERT_LT(full, record.size());
  // A delete and a shrink free 40 + 30 bytes in the middle of the record
  // area; the next 40-byte insert needs them and compacts.
  ASSERT_TRUE(page.Delete(slots[1]).ok());
  ASSERT_TRUE(page.UpdateInPlace(slots[2], Bytes("0123456789")).ok());
  EXPECT_EQ(page.DeadBytes(), 70u);
  EXPECT_EQ(page.FreeSpace(), full + 70);
  SlotId reused;
  ASSERT_TRUE(page.Insert(record, &reused).ok());
  EXPECT_EQ(reused, slots.back() + 1);  // a fresh slot id, never slots[1]
  EXPECT_EQ(page.DeadBytes(), 0u);
  EXPECT_FALSE(page.IsLive(slots[1]));
  std::span<const uint8_t> read;
  ASSERT_TRUE(page.Read(slots[2], &read).ok());
  EXPECT_EQ(AsString(read), "0123456789");
  for (const SlotId s : {slots[0], slots[3], reused}) {
    ASSERT_TRUE(page.Read(s, &read).ok());
    EXPECT_TRUE(std::equal(read.begin(), read.end(), record.begin(),
                           record.end()));
  }
}

TEST(PageTest, EmptyRecordAtTheEndOfA64KiBPageStaysLive) {
  // The page end, 65536, does not fit the u16 offset field; an empty record
  // stored there must not read back as the tombstone offset 0.
  Page page(65536);
  const std::vector<uint8_t> empty;
  SlotId slot;
  ASSERT_TRUE(page.Insert(empty, &slot).ok());
  EXPECT_TRUE(page.IsLive(slot));
  std::span<const uint8_t> record;
  ASSERT_TRUE(page.Read(slot, &record).ok());
  EXPECT_TRUE(record.empty());
  SlotId other;
  ASSERT_TRUE(page.Insert(Bytes("abc"), &other).ok());
  ASSERT_TRUE(page.Delete(other).ok());
  // A compacting insert moves the empty record back to the page end.
  const std::vector<uint8_t> big(page.FreeSpace(), 0x11);
  ASSERT_TRUE(page.Insert(big, &other).ok());
  EXPECT_TRUE(page.IsLive(slot));
  ASSERT_TRUE(page.Read(slot, &record).ok());
  EXPECT_TRUE(record.empty());
}

}  // namespace
}  // namespace aib
