#include "btree/cold_run.h"

#include <gtest/gtest.h>

#include "btree/btree.h"
#include "btree/hash_index.h"

namespace aib {
namespace {

Rid MakeRid(PageId page, SlotId slot) { return Rid{page, slot}; }

TEST(ColdRunTest, BuildCompactsSourceSortedByKey) {
  BTree tree(4);
  for (Value v : {42, 7, 19, 3, 19, 42}) {
    tree.Insert(v, MakeRid(static_cast<PageId>(v), 0));
  }
  ColdRun run;
  run.Build(tree);
  ASSERT_EQ(run.EntryCount(), 6u);
  for (size_t i = 1; i < run.entries().size(); ++i) {
    EXPECT_LE(run.entries()[i - 1].key, run.entries()[i].key);
  }
  EXPECT_EQ(run.MinKey(), 3);
  EXPECT_EQ(run.MaxKey(), 42);
}

TEST(ColdRunTest, LookupMatchesSourceIncludingPostingOrder) {
  // BTree::ForEachEntry is key-ordered with insertion-ordered postings;
  // the stable Build must reproduce exactly that rid sequence.
  BTree tree(4);
  tree.Insert(10, MakeRid(1, 1));
  tree.Insert(10, MakeRid(2, 2));
  tree.Insert(10, MakeRid(0, 0));
  tree.Insert(5, MakeRid(9, 9));
  ColdRun run;
  run.Build(tree);

  std::vector<Rid> from_tree;
  tree.Lookup(10, &from_tree);
  std::vector<Rid> from_run;
  run.Lookup(10, &from_run);
  EXPECT_EQ(from_run, from_tree);

  from_run.clear();
  run.Lookup(999, &from_run);
  EXPECT_TRUE(from_run.empty());
}

TEST(ColdRunTest, BuildSortsAHashSourceKeepingPostingOrder) {
  // A hash index emits keys in bucket order, so Build must sort, stably.
  HashIndex hash;
  for (Value v = 100; v > 0; --v) {
    hash.Insert(v % 10, MakeRid(static_cast<PageId>(v), 0));
  }
  ColdRun run;
  run.Build(hash);
  ASSERT_EQ(run.EntryCount(), 100u);
  for (size_t i = 1; i < run.entries().size(); ++i) {
    EXPECT_LE(run.entries()[i - 1].key, run.entries()[i].key);
  }
  for (Value key = 0; key < 10; ++key) {
    std::vector<Rid> from_hash;
    hash.Lookup(key, &from_hash);
    std::vector<Rid> from_run;
    run.Lookup(key, &from_run);
    EXPECT_EQ(from_run, from_hash) << "key " << key;
  }
}

TEST(ColdRunTest, ScanVisitsRangeInKeyOrder) {
  BTree tree(4);
  for (Value v = 0; v < 20; ++v) tree.Insert(v, MakeRid(v, 0));
  ColdRun run;
  run.Build(tree);
  std::vector<Value> seen;
  run.Scan(5, 9, [&](Value v, const Rid&) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<Value>{5, 6, 7, 8, 9}));
}

TEST(ColdRunTest, InsertPatchAppendsAfterDuplicates) {
  // The DML patch path: a fresh insert of an existing key lands after the
  // key's existing postings, exactly where a hot B+-tree would append it.
  BTree tree(4);
  tree.Insert(10, MakeRid(1, 1));
  tree.Insert(10, MakeRid(2, 2));
  ColdRun run;
  run.Build(tree);
  run.Insert(10, MakeRid(3, 3));
  run.Insert(4, MakeRid(4, 4));
  std::vector<Rid> out;
  run.Lookup(10, &out);
  EXPECT_EQ(out, (std::vector<Rid>{MakeRid(1, 1), MakeRid(2, 2),
                                   MakeRid(3, 3)}));
  EXPECT_EQ(run.MinKey(), 4);
  EXPECT_EQ(run.EntryCount(), 4u);
}

TEST(ColdRunTest, RemoveErasesSingleEntry) {
  ColdRun run;
  run.Insert(7, MakeRid(1, 1));
  run.Insert(7, MakeRid(2, 2));
  EXPECT_TRUE(run.Remove(7, MakeRid(1, 1)));
  EXPECT_FALSE(run.Remove(7, MakeRid(1, 1)));  // already gone
  EXPECT_FALSE(run.Remove(99, MakeRid(0, 0)));
  std::vector<Rid> out;
  run.Lookup(7, &out);
  EXPECT_EQ(out, (std::vector<Rid>{MakeRid(2, 2)}));
}

TEST(ColdRunTest, RemoveKeyDropsAllPostings) {
  ColdRun run;
  run.Insert(7, MakeRid(1, 1));
  run.Insert(7, MakeRid(2, 2));
  run.Insert(8, MakeRid(3, 3));
  EXPECT_EQ(run.RemoveKey(7), 2u);
  EXPECT_EQ(run.RemoveKey(7), 0u);
  EXPECT_EQ(run.EntryCount(), 1u);
}

TEST(ColdRunTest, MergeOlderPutsOlderEpochFirstAtEqualKeys) {
  ColdRun newer;
  newer.Insert(5, MakeRid(50, 0));
  newer.Insert(9, MakeRid(90, 0));
  ColdRun older;
  older.Insert(5, MakeRid(5, 0));
  older.Insert(1, MakeRid(10, 0));
  newer.MergeOlder(older);
  ASSERT_EQ(newer.EntryCount(), 4u);
  // Keys stay sorted, and at key 5 the older epoch's rid precedes.
  EXPECT_EQ(newer.MinKey(), 1);
  std::vector<Rid> out;
  newer.Lookup(5, &out);
  EXPECT_EQ(out, (std::vector<Rid>{MakeRid(5, 0), MakeRid(50, 0)}));
}

TEST(ColdRunTest, ClearReleasesEntries) {
  ColdRun run;
  for (Value v = 0; v < 1000; ++v) run.Insert(v, MakeRid(v, 0));
  const size_t loaded = run.ApproxBytes();
  run.Clear();
  EXPECT_EQ(run.EntryCount(), 0u);
  EXPECT_LT(run.ApproxBytes(), loaded);
}

}  // namespace
}  // namespace aib
