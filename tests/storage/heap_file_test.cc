#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/database.h"

namespace aib {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest()
      : schema_(Schema::PaperSchema(1, 64)),
        disk_(1024),
        pool_(&disk_, 64),
        heap_(&disk_, &pool_, &schema_) {}

  Tuple T(Value v, const std::string& payload = "p") {
    return Tuple({v}, {payload});
  }

  Schema schema_;
  DiskManager disk_;
  BufferPool pool_;
  HeapFile heap_;
};

TEST_F(HeapFileTest, InsertAndGet) {
  Result<Rid> rid = heap_.Insert(T(42, "hello"));
  ASSERT_TRUE(rid.ok());
  Result<Tuple> tuple = heap_.Get(rid.value());
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->IntValue(schema_, 0), 42);
  EXPECT_EQ(tuple->strings()[0], "hello");
}

TEST_F(HeapFileTest, InsertSpillsToNewPages) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(heap_.Insert(T(i, std::string(40, 'x'))).ok());
  }
  EXPECT_GT(heap_.PageCount(), 1u);
  EXPECT_EQ(heap_.TupleCount(), 300u);
}

TEST_F(HeapFileTest, PhysicalOrderIsInsertionOrder) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap_.Insert(T(i)).ok());
  }
  int expected = 0;
  ASSERT_TRUE(heap_
                  .ForEachTuple([&](const Rid&, const Tuple& tuple) {
                    EXPECT_EQ(tuple.IntValue(schema_, 0), expected++);
                  })
                  .ok());
  EXPECT_EQ(expected, 100);
}

TEST_F(HeapFileTest, DeleteRemovesTuple) {
  Result<Rid> rid = heap_.Insert(T(1));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(heap_.Delete(rid.value()).ok());
  EXPECT_TRUE(heap_.Get(rid.value()).status().IsNotFound());
  EXPECT_EQ(heap_.TupleCount(), 0u);
}

TEST_F(HeapFileTest, UpdateInPlaceKeepsRid) {
  Result<Rid> rid = heap_.Insert(T(1, "same-length"));
  ASSERT_TRUE(rid.ok());
  Result<Rid> new_rid = heap_.Update(rid.value(), T(2, "same-length"));
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ(new_rid.value(), rid.value());
  EXPECT_EQ(heap_.Get(rid.value())->IntValue(schema_, 0), 2);
}

TEST_F(HeapFileTest, UpdateGrowingRecordRelocates) {
  Result<Rid> rid = heap_.Insert(T(1, "s"));
  ASSERT_TRUE(rid.ok());
  // Fill the first page so relocation must move to another page.
  while (heap_.PageCount() == 1) {
    ASSERT_TRUE(heap_.Insert(T(0, std::string(60, 'f'))).ok());
  }
  Result<Rid> new_rid =
      heap_.Update(rid.value(), T(2, std::string(200, 'g')));
  ASSERT_TRUE(new_rid.ok());
  EXPECT_NE(new_rid.value(), rid.value());
  EXPECT_TRUE(heap_.Get(rid.value()).status().IsNotFound());
  EXPECT_EQ(heap_.Get(new_rid.value())->IntValue(schema_, 0), 2);
}

TEST_F(HeapFileTest, ForEachTupleOnPageSkipsTombstones) {
  Result<Rid> a = heap_.Insert(T(1));
  Result<Rid> b = heap_.Insert(T(2));
  Result<Rid> c = heap_.Insert(T(3));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(heap_.Delete(b.value()).ok());
  std::vector<Value> seen;
  ASSERT_TRUE(heap_
                  .ForEachTupleOnPage(0,
                                      [&](const Rid&, const Tuple& tuple) {
                                        seen.push_back(
                                            tuple.IntValue(schema_, 0));
                                      })
                  .ok());
  EXPECT_EQ(seen, (std::vector<Value>{1, 3}));
}

TEST_F(HeapFileTest, LiveTuplesOnPage) {
  Result<Rid> a = heap_.Insert(T(1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap_.Insert(T(2)).ok());
  Result<uint16_t> live = heap_.LiveTuplesOnPage(0);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value(), 2);
  ASSERT_TRUE(heap_.Delete(a.value()).ok());
  EXPECT_EQ(heap_.LiveTuplesOnPage(0).value(), 1);
}

TEST_F(HeapFileTest, PageIndexOutOfRange) {
  EXPECT_TRUE(heap_.LiveTuplesOnPage(5).status().IsInvalidArgument());
  EXPECT_TRUE(heap_
                  .ForEachTupleOnPage(5, [](const Rid&, const Tuple&) {})
                  .IsInvalidArgument());
}

/// Dense page number of `rid` in `heap`.
size_t PageOf(const HeapFile& heap, const Rid& rid) {
  return heap.PageIndexOf(rid.page_id).value();
}

TEST_F(HeapFileTest, InsertsReuseTheRoomOfDeletesBeforeTheTail) {
  std::vector<Rid> rids;
  while (heap_.PageCount() < 3) {
    Result<Rid> rid = heap_.Insert(T(static_cast<Value>(rids.size()),
                                     std::string(40, 'x')));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  const size_t pages = heap_.PageCount();
  EXPECT_EQ(heap_.InsertTarget(46), pages - 1);  // nothing freed: the tail
  // Deletes on page 0 list it; the next inserts land there, under new slot
  // ids, and leave every surviving rid of the page readable.
  ASSERT_EQ(PageOf(heap_, rids[3]), 0u);
  ASSERT_TRUE(heap_.Delete(rids[1]).ok());
  ASSERT_TRUE(heap_.Delete(rids[3]).ok());
  EXPECT_EQ(heap_.InsertTarget(46), 0u);
  Result<Rid> first = heap_.Insert(T(1000, std::string(40, 'y')));
  Result<Rid> second = heap_.Insert(T(1001, std::string(40, 'y')));
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(PageOf(heap_, first.value()), 0u);
  EXPECT_EQ(PageOf(heap_, second.value()), 0u);
  EXPECT_GT(first->slot, rids[3].slot);
  EXPECT_TRUE(heap_.Get(rids[1]).status().IsNotFound());
  EXPECT_TRUE(heap_.Get(rids[3]).status().IsNotFound());
  for (size_t i = 0; i < rids.size(); ++i) {
    if (i == 1 || i == 3) continue;
    EXPECT_EQ(heap_.Get(rids[i])->IntValue(schema_, 0), static_cast<Value>(i));
  }
  EXPECT_EQ(heap_.Get(second.value())->IntValue(schema_, 0), 1001);
  // Page 0 is full again: a third insert that does not fit goes to the
  // tail.
  EXPECT_EQ(heap_.InsertTarget(46), pages - 1);
  EXPECT_EQ(heap_.PageCount(), pages);
  EXPECT_EQ(heap_.TupleCount(), rids.size());
}

TEST_F(HeapFileTest, ShrinkingUpdateListsItsPage) {
  std::vector<Rid> rids;
  while (heap_.PageCount() < 2) {
    Result<Rid> rid = heap_.Insert(T(0, std::string(60, 'x')));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_EQ(heap_.InsertTarget(66), 1u);
  // Shrinking one record of page 0 by 60 bytes lists the page.
  ASSERT_TRUE(heap_.Update(rids[0], T(1, "")).ok());
  EXPECT_EQ(heap_.InsertTarget(10), 0u);
  Result<Rid> rid = heap_.Insert(T(2, "short"));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(PageOf(heap_, rid.value()), 0u);
  EXPECT_EQ(heap_.Get(rids[0])->IntValue(schema_, 0), 1);
}

// The free-space list is a function of the page contents: the lowest page
// that can take a record gets it, whatever order the deletes came in, and a
// page that was filled and then given room again is listed once, in place.
TEST_F(HeapFileTest, InsertsFillTheLowestListedPageFirst) {
  std::vector<Rid> rids;
  while (heap_.PageCount() < 4) {
    Result<Rid> rid = heap_.Insert(T(static_cast<Value>(rids.size()),
                                     std::string(40, 'x')));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  const size_t tail = heap_.PageCount() - 1;
  // The next live rid on `page` after those already deleted there.
  size_t cursor[4] = {0, 0, 0, 0};
  const auto delete_on = [&](size_t page) {
    while (PageOf(heap_, rids[cursor[page]]) != page) ++cursor[page];
    ASSERT_TRUE(heap_.Delete(rids[cursor[page]++]).ok());
  };
  const auto insert_lands_on = [&](size_t page) {
    Result<Rid> rid = heap_.Insert(T(-1, std::string(40, 'y')));
    ASSERT_TRUE(rid.ok());
    EXPECT_EQ(PageOf(heap_, rid.value()), page);
  };
  delete_on(2);
  delete_on(0);
  EXPECT_EQ(heap_.InsertTarget(46), 0u);
  insert_lands_on(0);  // fills page 0; it keeps too little room for 46
  EXPECT_EQ(heap_.InsertTarget(46), 2u);
  delete_on(1);
  delete_on(0);
  insert_lands_on(0);
  insert_lands_on(1);
  insert_lands_on(2);
  insert_lands_on(tail);
  // A target chosen earlier holds: a later delete on a lower page does not
  // redirect the insert that was given it.
  const size_t target = heap_.InsertTarget(46);
  delete_on(0);
  Result<Rid> rid = heap_.Insert(T(-2, std::string(40, 'z')), target);
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(PageOf(heap_, rid.value()), target);
  EXPECT_EQ(heap_.InsertTarget(46), 0u);
}

TEST_F(HeapFileTest, RestoreStateRebuildsTheFreeSpaceList) {
  std::vector<Rid> rids;
  while (heap_.PageCount() < 4) {
    Result<Rid> rid = heap_.Insert(T(0, std::string(40, 'x')));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_TRUE(heap_.Delete(rids[2]).ok());  // page 0 gets a tombstone
  ASSERT_TRUE(pool_.FlushAll().ok());
  HeapFile restored(&disk_, &pool_, &schema_);
  restored.RestoreState(heap_.page_ids(), heap_.TupleCount());
  EXPECT_EQ(restored.InsertTarget(46), 0u);
  EXPECT_EQ(restored.InsertTarget(46), heap_.InsertTarget(46));
  HeapFile untouched(&disk_, &pool_, &schema_);
  std::vector<PageId> ids = heap_.page_ids();
  ids.erase(ids.begin());  // without page 0 no page was given room
  untouched.RestoreState(ids, 0);
  EXPECT_EQ(untouched.InsertTarget(46), ids.size() - 1);
}

/// FetchLive of one rid: the status, and the fetched column-0 lane.
Status FetchOne(const HeapFile& heap, const Rid& rid,
                std::vector<Value>* values = nullptr) {
  const uint32_t sel = 0;
  std::vector<std::vector<Value>> lanes(1);
  const Status status = heap.FetchLive(std::span<const Rid>(&rid, 1),
                                       std::span<const uint32_t>(&sel, 1),
                                       {0}, &lanes);
  if (values != nullptr) *values = lanes[0];
  return status;
}

TEST_F(HeapFileTest, FetchLiveStatusMatchesGet) {
  Result<Rid> live = heap_.Insert(T(42, "hello"));
  Result<Rid> deleted = heap_.Insert(T(7));
  ASSERT_TRUE(live.ok() && deleted.ok());
  ASSERT_TRUE(heap_.Delete(deleted.value()).ok());
  const PageId page_id = live->page_id;

  // Malformed records, written straight into the page: an int column cut
  // short, a varchar length cut short, varchar data cut short, and a
  // well-formed record with one trailing byte.
  std::vector<uint8_t> trailing = T(5, "ok").Serialize(schema_);
  trailing.push_back(0xff);
  const std::vector<std::vector<uint8_t>> malformed = {
      {1, 2, 3},
      {1, 0, 0, 0, 9},
      {1, 0, 0, 0, 10, 0, 'a', 'b'},
      trailing,
  };
  std::vector<Rid> rids = {live.value(), deleted.value(),
                           Rid{page_id, 999}};
  Result<Page*> page = pool_.FetchPage(page_id);
  ASSERT_TRUE(page.ok());
  for (const std::vector<uint8_t>& record : malformed) {
    SlotId slot;
    ASSERT_TRUE(page.value()->Insert(record, &slot).ok());
    rids.push_back(Rid{page_id, slot});
  }
  ASSERT_TRUE(pool_.UnpinPage(page_id, /*dirty=*/true).ok());

  for (const Rid& rid : rids) {
    SCOPED_TRACE(::testing::Message() << "slot " << rid.slot);
    const Status get = heap_.Get(rid).status();
    std::vector<Value> values;
    const Status fetch = FetchOne(heap_, rid, &values);
    EXPECT_EQ(fetch.code(), get.code()) << fetch.ToString();
    EXPECT_EQ(fetch.message(), get.message());
    EXPECT_EQ(values.size(), get.ok() ? 1u : 0u);
  }
  std::vector<Value> values;
  ASSERT_TRUE(FetchOne(heap_, live.value(), &values).ok());
  EXPECT_EQ(values, std::vector<Value>{42});
  EXPECT_TRUE(FetchOne(heap_, deleted.value()).IsNotFound());
  EXPECT_TRUE(FetchOne(heap_, rids.back()).IsCorruption());
}

TEST_F(HeapFileTest, FetchLivePinsEachPageOncePerRun) {
  std::vector<Rid> rids;
  for (int i = 0; i < 300; ++i) {
    Result<Rid> rid = heap_.Insert(T(i, std::string(40, 'x')));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_GT(heap_.PageCount(), 2u);
  // Emitted order: three rids on the first page, one on the last page,
  // then the first page again — three runs, three pins.
  const std::vector<Rid> batch = {rids[0], rids[1], rids[2], rids.back(),
                                  rids[3]};
  const std::vector<uint32_t> sel = {0, 1, 2, 3, 4};
  const int64_t fetches_before = pool_.hits() + pool_.misses();
  std::vector<std::vector<Value>> lanes(1);
  ASSERT_TRUE(heap_.FetchLive(batch, sel, {0}, &lanes).ok());
  EXPECT_EQ(pool_.hits() + pool_.misses() - fetches_before, 3);
  EXPECT_EQ(lanes[0], (std::vector<Value>{0, 1, 2, 299, 3}));
  // A selection visits only its entries, in its order.
  lanes[0].clear();
  ASSERT_TRUE(heap_.FetchLive(batch, std::vector<uint32_t>{3, 1}, {0},
                              &lanes).ok());
  EXPECT_EQ(lanes[0], (std::vector<Value>{299, 1}));
  // Every pin was released: each page unpins as "not pinned".
  EXPECT_TRUE(pool_.UnpinPage(rids[0].page_id, false).IsInvalidArgument());
  EXPECT_TRUE(
      pool_.UnpinPage(rids.back().page_id, false).IsInvalidArgument());
  // A failing rid ends the walk with Get's status and still unpins.
  ASSERT_TRUE(heap_.Delete(rids[1]).ok());
  EXPECT_TRUE(heap_.FetchLive(batch, sel, {}, nullptr).IsNotFound());
  EXPECT_TRUE(pool_.UnpinPage(rids[0].page_id, false).IsInvalidArgument());
}

/// Every page of `heap` round-trips PageIdAt <-> PageIndexOf, and no page
/// of `other` translates in `heap`.
void ExpectOwnDirectory(const HeapFile& heap, const HeapFile& other) {
  for (size_t i = 0; i < heap.PageCount(); ++i) {
    const PageId page_id = heap.PageIdAt(i);
    ASSERT_NE(page_id, kInvalidPageId);
    Result<size_t> index = heap.PageIndexOf(page_id);
    ASSERT_TRUE(index.ok()) << "page " << page_id;
    EXPECT_EQ(index.value(), i);
    EXPECT_TRUE(other.PageIndexOf(page_id).status().IsInvalidArgument());
  }
  EXPECT_EQ(heap.PageIdAt(heap.PageCount()), kInvalidPageId);
  EXPECT_TRUE(heap.PageIndexOf(kInvalidPageId).status().IsInvalidArgument());
}

TEST_F(HeapFileTest, InterleavedHeapsOnOneDiskTranslateOnlyTheirOwnPages) {
  HeapFile other(&disk_, &pool_, &schema_);
  // Alternating inserts fill both tails at the same pace, so the two
  // files allocate their pages interleaved from the one disk.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(heap_.Insert(T(i, std::string(60, 'a'))).ok());
    ASSERT_TRUE(other.Insert(T(i, std::string(60, 'b'))).ok());
  }
  ASSERT_GT(heap_.PageCount(), 20u);
  ASSERT_EQ(heap_.PageCount() + other.PageCount(), disk_.PageCount());
  EXPECT_GT(heap_.PageIdAt(1), heap_.PageIdAt(0) + 1);  // interleaved
  ExpectOwnDirectory(heap_, other);
  ExpectOwnDirectory(other, heap_);

  // A restored file translates exactly its restored list; a file restored
  // empty forgets the pages it had.
  HeapFile restored(&disk_, &pool_, &schema_);
  restored.RestoreState(heap_.page_ids(), heap_.TupleCount());
  EXPECT_EQ(restored.page_ids(), heap_.page_ids());
  ExpectOwnDirectory(restored, other);
  ExpectOwnDirectory(other, restored);
  const PageId first = other.PageIdAt(0);
  other.RestoreState({}, 0);
  EXPECT_EQ(other.PageCount(), 0u);
  EXPECT_TRUE(other.PageIndexOf(first).status().IsInvalidArgument());
  EXPECT_EQ(other.PageIdAt(0), kInvalidPageId);
}

// A scan gathers columns from each whole record, so a record malformed
// after the gathered column fails a Select with the status Table::Get
// reports for it, instead of being answered.
TEST(HeapFileScanTest, SelectReportsMalformedRecordsAsGetDoes) {
  Database db(Schema::PaperSchema(2, 16));
  ASSERT_TRUE(db.LoadTuple(Tuple({1, 2}, {"a"})).ok());
  Result<Rid> good = db.LoadTuple(Tuple({7777, 3}, {"b"}));
  ASSERT_TRUE(good.ok());
  std::vector<uint8_t> trailing =
      Tuple({7777, 4}, {"c"}).Serialize(db.table().schema());
  trailing.push_back(0xff);
  std::vector<uint8_t> cut_varchar =
      Tuple({7777, 5}, {"dddd"}).Serialize(db.table().schema());
  cut_varchar.resize(cut_varchar.size() - 2);
  for (const std::vector<uint8_t>& record : {trailing, cut_varchar}) {
    Database copy(Schema::PaperSchema(2, 16));
    ASSERT_TRUE(copy.LoadTuple(Tuple({1, 2}, {"a"})).ok());
    const PageId page_id = copy.table().heap().PageIdAt(0);
    Result<Page*> page = copy.buffer_pool().FetchPage(page_id);
    ASSERT_TRUE(page.ok());
    SlotId slot;
    ASSERT_TRUE(page.value()->Insert(record, &slot).ok());
    ASSERT_TRUE(copy.buffer_pool().UnpinPage(page_id, true).ok());

    const Status get = copy.table().Get(Rid{page_id, slot}).status();
    const Status select =
        copy.ExecuteStatement(Statement::Select(Query::Point(0, 7777)))
            .status();
    EXPECT_TRUE(get.IsCorruption()) << get.ToString();
    EXPECT_EQ(select.code(), get.code()) << select.ToString();
    EXPECT_EQ(select.message(), get.message());
  }
  // The well-formed table still answers.
  Result<StatementResult> answer =
      db.ExecuteStatement(Statement::Select(Query::Point(0, 7777)));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->rids, std::vector<Rid>{good.value()});
}

TEST(HeapFileCapTest, MaxTuplesPerPageHonored) {
  Schema schema = Schema::PaperSchema(1, 16);
  DiskManager disk(4096);
  BufferPool pool(&disk, 64);
  HeapFileOptions options;
  options.max_tuples_per_page = 5;
  HeapFile heap(&disk, &pool, &schema, options);
  for (int i = 0; i < 23; ++i) {
    ASSERT_TRUE(heap.Insert(Tuple({i}, {"x"})).ok());
  }
  EXPECT_EQ(heap.PageCount(), 5u);  // ceil(23 / 5)
  for (size_t page = 0; page + 1 < heap.PageCount(); ++page) {
    EXPECT_EQ(heap.LiveTuplesOnPage(page).value(), 5);
  }
  EXPECT_EQ(heap.LiveTuplesOnPage(heap.PageCount() - 1).value(), 3);
  // A delete frees a place under the cap; the page is full again after one
  // insert, so the next one goes to the tail.
  ASSERT_TRUE(heap.Delete(Rid{heap.PageIdAt(1), 2}).ok());
  Result<Rid> refill = heap.Insert(Tuple({100}, {"x"}));
  ASSERT_TRUE(refill.ok());
  EXPECT_EQ(refill->page_id, heap.PageIdAt(1));
  Result<Rid> next = heap.Insert(Tuple({101}, {"x"}));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->page_id, heap.PageIdAt(4));
  for (size_t page = 0; page < heap.PageCount(); ++page) {
    EXPECT_LE(heap.LiveTuplesOnPage(page).value(), 5);
  }
}

TEST(HeapFileLargeTest, ThousandsOfTuplesAcrossPages) {
  Schema schema = Schema::PaperSchema(1, 64);
  DiskManager disk(8192);
  BufferPool pool(&disk, 8);  // smaller than the file: forces eviction
  HeapFile heap(&disk, &pool, &schema);
  std::vector<Rid> rids;
  for (int i = 0; i < 5000; ++i) {
    Result<Rid> rid = heap.Insert(Tuple({i}, {std::string(30, 'a')}));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  EXPECT_GT(heap.PageCount(), 8u);
  // Spot-check random access after evictions.
  EXPECT_EQ(heap.Get(rids[0])->IntValue(schema, 0), 0);
  EXPECT_EQ(heap.Get(rids[4999])->IntValue(schema, 0), 4999);
  EXPECT_EQ(heap.Get(rids[2500])->IntValue(schema, 0), 2500);
}

}  // namespace
}  // namespace aib
