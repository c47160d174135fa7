#include "core/buffer_space.h"

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/database.h"

namespace aib {
namespace {

/// Fixture with a 3-int-column table (10 tuples per page) and one partial
/// index per column, mirroring the paper's setup at miniature scale.
class BufferSpaceTest : public ::testing::Test {
 protected:
  BufferSpaceTest()
      : disk_(8192),
        pool_(&disk_, 256),
        table_("t", Schema::PaperSchema(3, 16), &disk_, &pool_,
               HeapFileOptions{.max_tuples_per_page = 10}) {
    // 200 tuples; every column equals the tuple ordinal, so coverage
    // [0, 49] covers pages 0..4 completely.
    for (Value v = 0; v < 200; ++v) {
      EXPECT_TRUE(table_.Insert(Tuple({v, v, v}, {"p"})).ok());
    }
    for (ColumnId c = 0; c < 3; ++c) {
      indexes_.push_back(std::make_unique<PartialIndex>(
          &table_, c, ValueCoverage::Range(0, 49)));
      EXPECT_TRUE(indexes_.back()->Build().ok());
    }
  }

  IndexBufferOptions SmallPartitions() {
    IndexBufferOptions options;
    options.partition_pages = 4;
    return options;
  }

  DiskManager disk_;
  BufferPool pool_;
  Table table_;
  std::vector<std::unique_ptr<PartialIndex>> indexes_;
};

TEST_F(BufferSpaceTest, CreateBufferInitializesCounters) {
  IndexBufferSpace space({});
  Result<IndexBuffer*> buffer = space.CreateBuffer(indexes_[0].get());
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(buffer.value()->counters().size(), table_.PageCount());
  EXPECT_EQ(buffer.value()->counters().Get(0), 0u);   // covered page
  EXPECT_EQ(buffer.value()->counters().Get(10), 10u);  // uncovered page
}

TEST_F(BufferSpaceTest, CreateBufferIsIdempotent) {
  IndexBufferSpace space({});
  IndexBuffer* first = space.CreateBuffer(indexes_[0].get()).value();
  IndexBuffer* second = space.CreateBuffer(indexes_[0].get()).value();
  EXPECT_EQ(first, second);
  EXPECT_EQ(space.buffers().size(), 1u);
}

TEST_F(BufferSpaceTest, GetBufferReturnsNullWhenAbsent) {
  IndexBufferSpace space({});
  EXPECT_EQ(space.GetBuffer(indexes_[0].get()), nullptr);
}

TEST_F(BufferSpaceTest, UnlimitedSelectionTakesCheapestPagesFirst) {
  BufferSpaceOptions options;
  options.max_pages_per_scan = 5;
  IndexBufferSpace space(options);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  // Make page 7 cheap (counter 2) by pre-indexing 8 of its tuples.
  for (Value v = 70; v < 78; ++v) {
    buffer->counters().Decrement(7);
    (void)v;
  }
  const PageSelection selection = space.SelectPagesForBuffer(buffer);
  ASSERT_EQ(selection.pages.size(), 5u);
  EXPECT_EQ(selection.pages[0], 7u);  // lowest counter first
  EXPECT_EQ(selection.partitions_dropped, 0u);
  // n_I = 2 + 4 * 10.
  EXPECT_EQ(selection.expected_entries, 42u);
}

TEST_F(BufferSpaceTest, SelectionSkipsFullyIndexedPages) {
  IndexBufferSpace space({});
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  const PageSelection selection = space.SelectPagesForBuffer(buffer);
  for (size_t page : selection.pages) {
    EXPECT_GT(buffer->counters().Get(page), 0u);
    EXPECT_GE(page, 5u);  // pages 0..4 are covered by the partial index
  }
}

TEST_F(BufferSpaceTest, ImaxCapsSelection) {
  BufferSpaceOptions options;
  options.max_pages_per_scan = 3;
  IndexBufferSpace space(options);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  EXPECT_EQ(space.SelectPagesForBuffer(buffer).pages.size(), 3u);
}

TEST_F(BufferSpaceTest, ZeroImaxMeansNoPerScanCap) {
  BufferSpaceOptions options;
  options.max_pages_per_scan = 0;
  IndexBufferSpace space(options);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  // Pages 5..19 are uncovered.
  const PageSelection selection = space.SelectPagesForBuffer(buffer);
  EXPECT_EQ(selection.pages.size(), 15u);
  EXPECT_EQ(selection.expected_entries, 150u);

  // End to end: one uncovered select indexes every uncovered page.
  DatabaseOptions db_options;
  db_options.max_tuples_per_page = 10;
  db_options.space = options;
  Database db(Schema::PaperSchema(1, 16), db_options);
  for (Value v = 0; v < 100; ++v) {
    ASSERT_TRUE(db.LoadTuple(Tuple({v}, {"p"})).ok());
  }
  ASSERT_TRUE(db.CreatePartialIndex(0, ValueCoverage::Range(0, 19)).ok());
  Result<StatementResult> result =
      db.ExecuteStatement(Statement::Select(Query::Point(0, 55)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.pages_selected, 8u);
  EXPECT_EQ(result->stats.entries_added, 80u);
  EXPECT_EQ(db.GetBuffer(0)->TotalEntries(), 80u);
}

TEST_F(BufferSpaceTest, BudgetLimitsSelection) {
  BufferSpaceOptions options;
  options.max_entries = 25;  // room for 2 pages of 10
  options.max_pages_per_scan = 100;
  IndexBufferSpace space(options);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  const PageSelection selection = space.SelectPagesForBuffer(buffer);
  EXPECT_EQ(selection.pages.size(), 2u);
  EXPECT_LE(selection.expected_entries, 25u);
}

TEST_F(BufferSpaceTest, TotalAndFreeEntries) {
  BufferSpaceOptions options;
  options.max_entries = 100;
  IndexBufferSpace space(options);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  EXPECT_EQ(space.TotalEntries(), 0u);
  EXPECT_EQ(space.FreeEntries(), 100u);
  buffer->AddTuple(5, 50, Rid{5, 0});
  EXPECT_EQ(space.TotalEntries(), 1u);
  EXPECT_EQ(space.FreeEntries(), 99u);
}

TEST_F(BufferSpaceTest, OnQueryFollowsTableII) {
  IndexBufferSpace space({});
  IndexBuffer* a = space.CreateBuffer(indexes_[0].get()).value();
  IndexBuffer* b = space.CreateBuffer(indexes_[1].get()).value();
  const double a_before = a->MeanInterval();

  // Miss on column A: A's history shifts (new interval), B's grows.
  space.OnQuery(indexes_[0].get(), /*partial_hit=*/false);
  EXPECT_DOUBLE_EQ(a->history().history()[0], 0.0);
  EXPECT_LT(a->MeanInterval(), a_before);
  EXPECT_GT(b->history().history()[0], 0.0);

  // Hit on column A: both histories just grow.
  space.OnQuery(indexes_[0].get(), /*partial_hit=*/true);
  EXPECT_DOUBLE_EQ(a->history().history()[0], 1.0);
}

TEST_F(BufferSpaceTest, DisplacementDemotesColdBufferPartitions) {
  BufferSpaceOptions options;
  options.max_entries = 60;
  options.max_pages_per_scan = 100;
  options.seed = 5;
  IndexBufferSpace space(options);  // default mode: kDemote
  IndexBuffer* cold =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  IndexBuffer* hot =
      space.CreateBuffer(indexes_[1].get(), SmallPartitions()).value();

  // Fill the space with the cold buffer's entries (pages 5..10, 60 entries).
  for (size_t page = 5; page <= 10; ++page) {
    for (SlotId slot = 0; slot < 10; ++slot) {
      cold->AddTuple(page, static_cast<Value>(page * 10 + slot),
                     Rid{static_cast<PageId>(page), slot});
    }
    cold->MarkPageIndexed(page);
  }
  ASSERT_EQ(space.FreeEntries(), 0u);

  // Make `cold` genuinely cold and `hot` hot.
  for (int i = 0; i < 30; ++i) {
    cold->history().OnOtherQuery();
    hot->history().OnBufferUse();
  }

  const PageSelection selection = space.SelectPagesForBuffer(hot);
  EXPECT_GT(selection.partitions_demoted, 0u);
  EXPECT_GT(selection.entries_demoted, 0u);
  EXPECT_EQ(selection.partitions_dropped, 0u);
  EXPECT_FALSE(selection.pages.empty());
  // The freed space fits the new information.
  EXPECT_LE(selection.expected_entries,
            space.FreeEntries());
  // The victims left the hot budget but stayed probe-able: their entries
  // live on in the cold tier and their pages remain covered (C[p] = 0).
  EXPECT_EQ(space.ColdEntries(), selection.entries_demoted);
  EXPECT_EQ(space.ColdPartitionCount(), selection.partitions_demoted);
  for (size_t page = 5; page <= 10; ++page) {
    EXPECT_EQ(cold->counters().Get(page), 0u) << "page " << page;
  }
}

TEST_F(BufferSpaceTest, DropModeDisplacementDropsColdBufferPartitions) {
  BufferSpaceOptions options;
  options.max_entries = 60;
  options.max_pages_per_scan = 100;
  options.seed = 5;
  options.eviction_mode = EvictionMode::kDrop;  // the paper's baseline
  IndexBufferSpace space(options);
  IndexBuffer* cold =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  IndexBuffer* hot =
      space.CreateBuffer(indexes_[1].get(), SmallPartitions()).value();

  for (size_t page = 5; page <= 10; ++page) {
    for (SlotId slot = 0; slot < 10; ++slot) {
      cold->AddTuple(page, static_cast<Value>(page * 10 + slot),
                     Rid{static_cast<PageId>(page), slot});
    }
    cold->MarkPageIndexed(page);
  }
  ASSERT_EQ(space.FreeEntries(), 0u);

  for (int i = 0; i < 30; ++i) {
    cold->history().OnOtherQuery();
    hot->history().OnBufferUse();
  }

  const PageSelection selection = space.SelectPagesForBuffer(hot);
  EXPECT_GT(selection.partitions_dropped, 0u);
  EXPECT_GT(selection.entries_dropped, 0u);
  EXPECT_EQ(selection.partitions_demoted, 0u);
  EXPECT_FALSE(selection.pages.empty());
  EXPECT_LE(selection.expected_entries,
            space.FreeEntries());
  // Dropped means gone: no cold tier in this mode.
  EXPECT_EQ(space.ColdPartitionCount(), 0u);
}

TEST_F(BufferSpaceTest, NoDisplacementWhenNewInfoColderThanOld) {
  BufferSpaceOptions options;
  options.max_entries = 60;
  options.max_pages_per_scan = 100;
  IndexBufferSpace space(options);
  IndexBuffer* hot =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  IndexBuffer* cold =
      space.CreateBuffer(indexes_[1].get(), SmallPartitions()).value();

  for (size_t page = 5; page <= 10; ++page) {
    for (SlotId slot = 0; slot < 10; ++slot) {
      hot->AddTuple(page, static_cast<Value>(page * 10 + slot),
                    Rid{static_cast<PageId>(page), slot});
    }
    hot->MarkPageIndexed(page);
  }
  for (int i = 0; i < 30; ++i) {
    hot->history().OnBufferUse();   // very hot owner of the space
    cold->history().OnOtherQuery();  // cold receiver
  }

  const PageSelection selection = space.SelectPagesForBuffer(cold);
  // Displacing the hot buffer for a cold one must not pay off.
  EXPECT_EQ(selection.partitions_dropped, 0u);
  EXPECT_TRUE(selection.pages.empty());
}

TEST_F(BufferSpaceTest, SingleBufferFallbackDisplacesOwnPartitions) {
  BufferSpaceOptions options;
  options.max_entries = 60;
  options.max_pages_per_scan = 100;
  IndexBufferSpace space(options);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();

  // Fill the budget with 6 pages (partition ids 1 and 2 under P=4).
  for (size_t page = 5; page <= 10; ++page) {
    for (SlotId slot = 0; slot < 10; ++slot) {
      buffer->AddTuple(page, static_cast<Value>(page * 10 + slot),
                       Rid{static_cast<PageId>(page), slot});
    }
    buffer->MarkPageIndexed(page);
  }
  ASSERT_EQ(space.FreeEntries(), 0u);

  // Selection must not dead-lock with a single buffer: either it selects
  // nothing (new info not better) or it displaces own partitions. Both are
  // legal; what must hold is the budget.
  const PageSelection selection = space.SelectPagesForBuffer(buffer);
  EXPECT_LE(selection.expected_entries, space.FreeEntries());
  EXPECT_LE(space.TotalEntries(), options.max_entries);
}

}  // namespace
}  // namespace aib
