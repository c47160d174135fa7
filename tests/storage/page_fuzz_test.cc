// Page fuzzer: random operation sequences against a reference model, plus
// adversarial deserialization of random bytes. The slotted page is the
// lowest layer every scan touches; it must never crash or return wrong
// records regardless of operation order.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace aib {
namespace {

class PageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// The slot array entry of `slot`: its record's offset.
uint16_t SlotOffset(const Page& page, SlotId slot) {
  uint16_t offset;
  std::memcpy(&offset, page.raw().data() + Page::SlotOffsetPos(slot),
              sizeof(offset));
  return offset;
}

// The model predicts compaction: an insert succeeds exactly when the live
// bytes, the slot array with one more slot, and the record fit the page,
// wherever the dead bytes of deletes and shrinks lie, and it never reuses a
// slot id or moves a live record's bytes.
TEST_P(PageFuzzTest, RandomOpsMatchReferenceModel) {
  for (const uint32_t page_size : {1024u, 8192u}) {
    SCOPED_TRACE(::testing::Message() << "page size " << page_size);
    Rng rng(GetParam());
    Page page(page_size);
    // Model: slot -> live record bytes; the tombstoned slots; the next slot
    // id; and the live bytes (the sum of the live records' lengths).
    std::map<SlotId, std::vector<uint8_t>> model;
    std::set<SlotId> tombstones;
    SlotId next_slot = 0;
    uint32_t live_bytes = 0;
    int compacting_inserts = 0;
    const int64_t max_length = page_size / 16;

    const auto expect_page_matches_model = [&] {
      ASSERT_EQ(page.slot_count(), next_slot);
      ASSERT_EQ(page.live_count(), model.size());
      for (const auto& [slot, expected] : model) {
        std::span<const uint8_t> record;
        ASSERT_TRUE(page.Read(slot, &record).ok()) << "slot " << slot;
        ASSERT_TRUE(std::equal(record.begin(), record.end(), expected.begin(),
                               expected.end()))
            << "slot " << slot;
        ASSERT_NE(SlotOffset(page, slot), 0) << "live slot " << slot;
      }
      for (const SlotId slot : tombstones) {
        ASSERT_FALSE(page.IsLive(slot)) << "tombstone " << slot;
      }
    };

    for (int op = 0; op < 3000; ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind < 5) {  // insert
        const size_t length =
            static_cast<size_t>(rng.UniformInt(0, max_length));
        std::vector<uint8_t> record(length);
        for (auto& byte : record) {
          byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
        }
        const bool fits =
            Page::SlotOffsetPos(next_slot + 1) + live_bytes + length <=
            page_size;
        // Room beyond the contiguous gap is dead bytes: using it compacts.
        const bool compacts =
            fits && length + page.DeadBytes() > page.FreeSpace();
        SlotId slot;
        const Status status = page.Insert(record, &slot);
        ASSERT_EQ(status.ok(), fits) << status.ToString();
        if (status.ok()) {
          EXPECT_EQ(slot, next_slot);
          ++next_slot;
          live_bytes += static_cast<uint32_t>(length);
          model[slot] = std::move(record);
          if (compacts) {
            ++compacting_inserts;
            EXPECT_EQ(page.DeadBytes(), 0u);
          }
        } else {
          EXPECT_TRUE(status.IsNoSpace());
        }
        expect_page_matches_model();
      } else if (kind < 7) {  // delete a random live slot
        if (model.empty()) continue;
        auto it = model.begin();
        std::advance(it, rng.UniformInt(0, model.size() - 1));
        EXPECT_TRUE(page.Delete(it->first).ok());
        live_bytes -= static_cast<uint32_t>(it->second.size());
        tombstones.insert(it->first);
        model.erase(it);
      } else if (kind < 9) {  // update in place (shrink or equal)
        if (model.empty()) continue;
        auto it = model.begin();
        std::advance(it, rng.UniformInt(0, model.size() - 1));
        const size_t new_length = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(it->second.size())));
        std::vector<uint8_t> record(new_length, 0x5a);
        EXPECT_TRUE(page.UpdateInPlace(it->first, record).ok());
        live_bytes -= static_cast<uint32_t>(it->second.size() - new_length);
        it->second = std::move(record);
      } else {  // read a random slot id (live or not)
        const SlotId slot =
            static_cast<SlotId>(rng.UniformInt(0, page.slot_count() + 2));
        std::span<const uint8_t> record;
        const Status status = page.Read(slot, &record);
        if (model.contains(slot)) {
          ASSERT_TRUE(status.ok());
          EXPECT_TRUE(std::equal(record.begin(), record.end(),
                                 model[slot].begin(), model[slot].end()));
        } else {
          EXPECT_TRUE(status.IsNotFound());
        }
      }
    }

    // Final sweep: every model entry is readable and intact.
    expect_page_matches_model();
    EXPECT_GT(compacting_inserts, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(TupleFuzzTest, RandomBytesNeverCrashDeserialize) {
  const Schema schema = Schema::PaperSchema();
  Rng rng(909);
  for (int round = 0; round < 5000; ++round) {
    const size_t length = static_cast<size_t>(rng.UniformInt(0, 80));
    std::vector<uint8_t> bytes(length);
    for (auto& byte : bytes) {
      byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    // Must return OK or Corruption — never crash, never throw.
    Result<Tuple> tuple = Tuple::Deserialize(schema, bytes);
    if (!tuple.ok()) {
      EXPECT_TRUE(tuple.status().IsCorruption());
    }
  }
}

TEST(TupleFuzzTest, MutatedValidTupleEitherParsesOrCorrupts) {
  const Schema schema = Schema::PaperSchema();
  const Tuple original({1, 2, 3}, {"payload-bytes"});
  const std::vector<uint8_t> valid = original.Serialize(schema);
  Rng rng(808);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> mutated = valid;
    const size_t pos =
        static_cast<size_t>(rng.UniformInt(0, mutated.size() - 1));
    mutated[pos] = static_cast<uint8_t>(rng.UniformInt(0, 255));
    Result<Tuple> tuple = Tuple::Deserialize(schema, mutated);
    if (!tuple.ok()) {
      EXPECT_TRUE(tuple.status().IsCorruption());
    } else {
      // A successful parse must at least have the right shape.
      EXPECT_EQ(tuple->ints().size(), 3u);
      EXPECT_EQ(tuple->strings().size(), 1u);
    }
  }
}

}  // namespace
}  // namespace aib
