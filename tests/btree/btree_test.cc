#include "btree/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"

namespace aib {
namespace {

Rid R(uint32_t page, uint16_t slot = 0) {
  return Rid{page, slot};
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.EntryCount(), 0u);
  EXPECT_EQ(tree.KeyCount(), 0u);
  EXPECT_EQ(tree.Height(), 1);
  std::vector<Rid> out;
  tree.Lookup(5, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, InsertLookupSingle) {
  BTree tree;
  tree.Insert(10, R(1, 2));
  std::vector<Rid> out;
  tree.Lookup(10, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], R(1, 2));
  EXPECT_EQ(tree.EntryCount(), 1u);
  EXPECT_EQ(tree.KeyCount(), 1u);
}

TEST(BTreeTest, DuplicateKeysSharePostings) {
  BTree tree;
  tree.Insert(10, R(1));
  tree.Insert(10, R(2));
  tree.Insert(10, R(3));
  std::vector<Rid> out;
  tree.Lookup(10, &out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(tree.EntryCount(), 3u);
  EXPECT_EQ(tree.KeyCount(), 1u);
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTree tree(4);
  for (Value v = 0; v < 100; ++v) tree.Insert(v, R(static_cast<uint32_t>(v)));
  EXPECT_GT(tree.Height(), 2);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  for (Value v = 0; v < 100; ++v) {
    std::vector<Rid> out;
    tree.Lookup(v, &out);
    ASSERT_EQ(out.size(), 1u) << "key " << v;
    EXPECT_EQ(out[0].page_id, static_cast<uint32_t>(v));
  }
}

TEST(BTreeTest, ReverseInsertionOrder) {
  BTree tree(4);
  for (Value v = 99; v >= 0; --v) tree.Insert(v, R(static_cast<uint32_t>(v)));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.KeyCount(), 100u);
}

TEST(BTreeTest, ScanVisitsRangeInOrder) {
  BTree tree(8);
  for (Value v = 0; v < 200; v += 2) tree.Insert(v, R(static_cast<uint32_t>(v)));
  std::vector<Value> keys;
  tree.Scan(51, 99, [&](Value key, const Rid&) { keys.push_back(key); });
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.front(), 52);
  EXPECT_EQ(keys.back(), 98);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 24u);
}

TEST(BTreeTest, ScanEmptyRange) {
  BTree tree;
  tree.Insert(10, R(1));
  std::vector<Value> keys;
  tree.Scan(20, 30, [&](Value key, const Rid&) { keys.push_back(key); });
  EXPECT_TRUE(keys.empty());
}

TEST(BTreeTest, ScanFullRange) {
  BTree tree(4);
  for (Value v = 0; v < 50; ++v) tree.Insert(v, R(static_cast<uint32_t>(v)));
  size_t count = 0;
  tree.Scan(std::numeric_limits<Value>::min(),
            std::numeric_limits<Value>::max(),
            [&](Value, const Rid&) { ++count; });
  EXPECT_EQ(count, 50u);
}

TEST(BTreeTest, RemoveSpecificRid) {
  BTree tree;
  tree.Insert(5, R(1));
  tree.Insert(5, R(2));
  EXPECT_TRUE(tree.Remove(5, R(1)));
  std::vector<Rid> out;
  tree.Lookup(5, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], R(2));
  EXPECT_EQ(tree.EntryCount(), 1u);
}

TEST(BTreeTest, RemoveLastRidDropsKey) {
  BTree tree;
  tree.Insert(5, R(1));
  EXPECT_TRUE(tree.Remove(5, R(1)));
  EXPECT_EQ(tree.KeyCount(), 0u);
  EXPECT_EQ(tree.EntryCount(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, RemoveAbsentFails) {
  BTree tree;
  tree.Insert(5, R(1));
  EXPECT_FALSE(tree.Remove(5, R(2)));
  EXPECT_FALSE(tree.Remove(6, R(1)));
  EXPECT_EQ(tree.EntryCount(), 1u);
}

TEST(BTreeTest, RemoveKeyDropsAllPostings) {
  BTree tree;
  for (uint32_t i = 0; i < 5; ++i) tree.Insert(7, R(i));
  EXPECT_EQ(tree.RemoveKey(7), 5u);
  EXPECT_EQ(tree.RemoveKey(7), 0u);
  EXPECT_EQ(tree.EntryCount(), 0u);
}

TEST(BTreeTest, ForEachEntryVisitsAll) {
  BTree tree(4);
  for (Value v = 0; v < 60; ++v) {
    tree.Insert(v % 10, R(static_cast<uint32_t>(v)));
  }
  size_t count = 0;
  Value prev = -1;
  tree.ForEachEntry([&](Value key, const Rid&) {
    EXPECT_GE(key, prev);
    prev = key;
    ++count;
  });
  EXPECT_EQ(count, 60u);
}

TEST(BTreeTest, ClearResets) {
  BTree tree(4);
  for (Value v = 0; v < 100; ++v) tree.Insert(v, R(static_cast<uint32_t>(v)));
  tree.Clear();
  EXPECT_EQ(tree.EntryCount(), 0u);
  EXPECT_EQ(tree.KeyCount(), 0u);
  EXPECT_EQ(tree.Height(), 1);
  tree.Insert(5, R(1));
  EXPECT_EQ(tree.EntryCount(), 1u);
}

TEST(BTreeTest, ApproxBytesGrowsWithContent) {
  BTree tree;
  const size_t empty = tree.ApproxBytes();
  for (Value v = 0; v < 1000; ++v) tree.Insert(v, R(static_cast<uint32_t>(v)));
  EXPECT_GT(tree.ApproxBytes(), empty);
}

TEST(BTreeTest, NegativeKeys) {
  BTree tree(4);
  for (Value v = -50; v <= 50; ++v) {
    tree.Insert(v, R(static_cast<uint32_t>(v + 50)));
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<Value> keys;
  tree.Scan(-10, 10, [&](Value key, const Rid&) { keys.push_back(key); });
  EXPECT_EQ(keys.size(), 21u);
  EXPECT_EQ(keys.front(), -10);
}

TEST(BTreeTest, DistinctKeysTakeAtMost24BytesPerEntry) {
  // Keys arrive in random order, as an indexing scan meets them.
  std::vector<Value> keys(100000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<Value>(i);
  Rng rng(42);
  rng.Shuffle(keys);
  BTree tree(64);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], R(static_cast<uint32_t>(i / 64),
                           static_cast<uint16_t>(i % 64)));
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  const double bytes_per_entry =
      static_cast<double>(tree.ApproxBytes()) / tree.EntryCount();
  EXPECT_LE(bytes_per_entry, 24.0);
  EXPECT_GE(bytes_per_entry, 12.0);  // an entry's key and rid alone
}

// ---------------------------------------------------------------------------
// Property tests: random operation sequences checked against a reference
// model (key -> rids in insertion order) across fanouts. Probes must return
// the model's exact rid sequence, not just the same set.
// ---------------------------------------------------------------------------

// Runs 4,000 random inserts and removes on keys 0..200; `hot_share` of the
// operations target key 100, so its run can outgrow the fanout. Returns the
// longest run key 100 reached.
size_t Pick(Rng* rng, size_t n) {
  return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
}

size_t RunAgainstModel(int fanout, double hot_share) {
  BTree tree(fanout);
  std::map<Value, std::vector<Rid>> model;
  size_t entries = 0;
  size_t longest_hot_run = 0;
  Rng rng(static_cast<uint64_t>(fanout) * 1000 + 17);
  uint32_t next_rid = 0;

  for (int op = 0; op < 4000; ++op) {
    int kind = static_cast<int>(rng.UniformInt(0, 9));
    const bool hot = rng.Bernoulli(hot_share);
    const Value key = hot ? 100 : static_cast<Value>(rng.UniformInt(0, 200));
    std::vector<Rid>& rids = model[key];
    // The hot key's run is removed whole only once it spans 4 fanouts.
    if (hot && kind == 9 && rids.size() <= 4 * static_cast<size_t>(fanout)) {
      kind = 0;
    }
    if (kind < 6) {  // insert; now and then a duplicate (key, rid) pair
      const Rid rid = !rids.empty() && kind == 0
                          ? rids[Pick(&rng, rids.size())]
                          : R(next_rid++);
      tree.Insert(key, rid);
      rids.push_back(rid);
      ++entries;
    } else if (kind < 9) {  // remove one rid of the key: its first copy
      if (!rids.empty()) {
        const Rid rid = rids[Pick(&rng, rids.size())];
        EXPECT_TRUE(tree.Remove(key, rid));
        rids.erase(std::find(rids.begin(), rids.end(), rid));
        --entries;
      } else {
        EXPECT_FALSE(tree.Remove(key, R(12345678)));
      }
    } else {  // remove whole key
      EXPECT_EQ(tree.RemoveKey(key), rids.size());
      entries -= rids.size();
      rids.clear();
    }
    if (rids.empty()) model.erase(key);
    if (model.contains(100)) {
      longest_hot_run = std::max(longest_hot_run, model[100].size());
    }
    if (op % 200 == 199) {
      const Status status = tree.CheckInvariants();
      if (!status.ok()) {
        ADD_FAILURE() << status.ToString() << " after op " << op;
        return longest_hot_run;
      }
    }
  }

  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.EntryCount(), entries);
  EXPECT_EQ(tree.KeyCount(), model.size());

  // Every key returns the model's rids in insertion order.
  for (Value key = 0; key <= 200; ++key) {
    std::vector<Rid> out;
    tree.Lookup(key, &out);
    const auto it = model.find(key);
    EXPECT_EQ(out, it == model.end() ? std::vector<Rid>{} : it->second)
        << "key " << key << " fanout " << fanout;
  }

  // Range scans visit keys ascending, each key's rids in insertion order.
  for (const auto& [lo, hi] :
       {std::pair<Value, Value>{50, 150}, {0, 200}}) {
    std::vector<std::pair<Value, Rid>> scanned;
    tree.Scan(lo, hi, [&](Value key, const Rid& rid) {
      scanned.emplace_back(key, rid);
    });
    std::vector<std::pair<Value, Rid>> expected;
    for (auto it = model.lower_bound(lo); it != model.upper_bound(hi); ++it) {
      for (const Rid& rid : it->second) expected.emplace_back(it->first, rid);
    }
    EXPECT_EQ(scanned, expected) << "[" << lo << ", " << hi << "]";
  }
  return longest_hot_run;
}

class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, MatchesReferenceModelUnderRandomOps) {
  RunAgainstModel(GetParam(), /*hot_share=*/0.0);
}

TEST_P(BTreePropertyTest, InvariantsHoldDuringGrowth) {
  const int fanout = GetParam();
  BTree tree(fanout);
  Rng rng(static_cast<uint64_t>(fanout));
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(static_cast<Value>(rng.UniformInt(-100000, 100000)),
                R(static_cast<uint32_t>(i)));
    if (i % 400 == 399) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "after " << i + 1;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.EntryCount(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreePropertyTest,
                         ::testing::Values(4, 8, 16, 64, 128));

class BTreeLongRunTest : public ::testing::TestWithParam<int> {};

// One key takes half the operations, so its run spans many fanouts' worth
// of entries beside its neighbours: leaves may split only between keys.
TEST_P(BTreeLongRunTest, OneKeysRunOutgrowsTheFanoutAndStaysOrdered) {
  const int fanout = GetParam();
  EXPECT_GT(RunAgainstModel(fanout, /*hot_share=*/0.5),
            4 * static_cast<size_t>(fanout));
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeLongRunTest,
                         ::testing::Values(4, 8, 64));

}  // namespace
}  // namespace aib
