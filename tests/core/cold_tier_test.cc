// Two-tier Index Buffer acceptance: demote keeps coverage valid and
// probe-able, promote restores the hot tier (with the LRU-K history the
// benefit model accumulated before demotion), and DML patches cold-covered
// pages in place per Table I.

#include <gtest/gtest.h>

#include "core/buffer_space.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace aib {
namespace {

/// Same miniature paper setup as BufferSpaceTest: 200 tuples, every column
/// equals the tuple ordinal, 10 tuples per page, coverage [0, 49] (pages
/// 0..4 fully covered by the partial index).
class ColdTierTest : public ::testing::Test {
 protected:
  ColdTierTest()
      : disk_(8192),
        pool_(&disk_, 256),
        table_("t", Schema::PaperSchema(3, 16), &disk_, &pool_,
               HeapFileOptions{.max_tuples_per_page = 10}) {
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

  /// Indexes pages [first, last] into `buffer` (10 entries per page, value
  /// = 10 * page + slot) and marks them fully indexed.
  void FillPages(IndexBuffer* buffer, size_t first, size_t last) {
    for (size_t page = first; page <= last; ++page) {
      for (SlotId slot = 0; slot < 10; ++slot) {
        buffer->AddTuple(page, static_cast<Value>(page * 10 + slot),
                         Rid{static_cast<PageId>(page), slot});
      }
      buffer->MarkPageIndexed(page);
    }
  }

  std::vector<Rid> Probe(const IndexBuffer& buffer, Value value,
                         IndexBuffer::ProbeTierStats* tier = nullptr) {
    std::vector<Rid> out;
    buffer.Lookup(value, &out, tier);
    return out;
  }

  DiskManager disk_;
  BufferPool pool_;
  Table table_;
  std::vector<std::unique_ptr<PartialIndex>> indexes_;
};

TEST_F(ColdTierTest, DemoteKeepsPagesCoveredAndProbeAble) {
  IndexBufferSpace space({});
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  IndexBuffer* twin =
      space.CreateBuffer(indexes_[1].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 10);  // partitions 1 (pages 5..7) and 2 (8..10)
  FillPages(twin, 5, 10);

  const size_t moved = buffer->DemotePartition(1);
  EXPECT_EQ(moved, 30u);
  EXPECT_EQ(buffer->TotalEntries(), 30u);  // partition 2 stays hot
  EXPECT_EQ(buffer->ColdEntries(), 30u);
  EXPECT_EQ(buffer->ColdPartitionCount(), 1u);

  // Coverage never went stale: the demoted pages stay fully indexed.
  for (size_t page = 5; page <= 7; ++page) {
    EXPECT_EQ(buffer->counters().Get(page), 0u) << "page " << page;
    EXPECT_TRUE(buffer->PageInBuffer(page)) << "page " << page;
  }

  // Probes answer from the cold tier, bit-identical to the twin that never
  // demoted — one value per tier plus one spanning range.
  for (Value v : {55, 70, 85, 100}) {
    EXPECT_EQ(Probe(*buffer, v), Probe(*twin, v)) << "value " << v;
  }
  IndexBuffer::ProbeTierStats tier;
  (void)Probe(*buffer, 70, &tier);
  EXPECT_EQ(tier.cold_partitions, 1u);
  EXPECT_EQ(tier.cold_matches, 1u);
  EXPECT_EQ(tier.hot_matches, 0u);

  std::vector<std::pair<Value, Rid>> ours;
  std::vector<std::pair<Value, Rid>> theirs;
  buffer->Scan(50, 110,
               [&](Value v, const Rid& r) { ours.emplace_back(v, r); });
  twin->Scan(50, 110,
             [&](Value v, const Rid& r) { theirs.emplace_back(v, r); });
  EXPECT_EQ(ours, theirs);
}

TEST_F(ColdTierTest, PromoteRestoresHotTierExactly) {
  IndexBufferSpace space({});
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 10);
  const size_t entries_before = buffer->TotalEntries();

  ASSERT_GT(buffer->DemotePartition(1), 0u);
  ASSERT_TRUE(buffer->PromotePartition(1).ok());

  EXPECT_EQ(buffer->TotalEntries(), entries_before);
  EXPECT_EQ(buffer->ColdPartitionCount(), 0u);
  EXPECT_EQ(buffer->PartitionCount(), 2u);
  for (size_t page = 5; page <= 7; ++page) {
    EXPECT_EQ(buffer->counters().Get(page), 0u);
    EXPECT_TRUE(buffer->PageInBuffer(page));
  }
  IndexBuffer::ProbeTierStats tier;
  const std::vector<Rid> rids = Probe(*buffer, 70, &tier);
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], (Rid{7, 0}));
  EXPECT_EQ(tier.cold_partitions, 0u);  // hot again
  EXPECT_EQ(tier.hot_matches, 1u);

  EXPECT_TRUE(buffer->PromotePartition(1).IsNotFound());  // nothing cold
}

// The satellite regression: the LRU-K history (and with it the partition's
// benefit b_p = X_p / T_B) is per-buffer and must continue from its
// pre-demotion state after a demote/promote round trip — not restart from
// the initial-interval seed the way a drop/rebuild would after re-indexing.
TEST_F(ColdTierTest, LruKHistorySurvivesDemotePromoteRoundTrip) {
  IndexBufferSpace space({});
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 7);

  // Make the buffer hot: its mean interval drops well below the seed.
  for (int i = 0; i < 20; ++i) buffer->OnBufferUse();
  const std::vector<double> history_before = buffer->history().history();
  const double interval_before = buffer->MeanInterval();
  const double benefit_before = buffer->TotalBenefit();
  ASSERT_LT(interval_before, buffer->options().initial_interval);

  ASSERT_GT(buffer->DemotePartition(1), 0u);
  EXPECT_EQ(buffer->history().history(), history_before);
  ASSERT_TRUE(buffer->PromotePartition(1).ok());

  EXPECT_EQ(buffer->history().history(), history_before);
  EXPECT_DOUBLE_EQ(buffer->MeanInterval(), interval_before);
  // Same covered pages, same entries, same T_B => same b_p.
  EXPECT_DOUBLE_EQ(buffer->TotalBenefit(), benefit_before);
}

TEST_F(ColdTierTest, DemoteMergesWithExistingColdSibling) {
  IndexBufferSpace space({});
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 6);
  ASSERT_EQ(buffer->DemotePartition(1), 20u);

  // An indexing scan covers page 7 after the demotion: partition 1 now has
  // a hot sibling. Demoting again must merge, not clobber.
  FillPages(buffer, 7, 7);
  ASSERT_EQ(buffer->PartitionCount(), 1u);
  ASSERT_EQ(buffer->DemotePartition(1), 10u);

  EXPECT_EQ(buffer->ColdPartitionCount(), 1u);
  EXPECT_EQ(buffer->ColdEntries(), 30u);
  const std::vector<IndexBuffer::PartitionStats> stats = buffer->ColdSnapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].covered_pages, 3u);
  for (Value v : {55, 65, 75}) {
    EXPECT_EQ(Probe(*buffer, v).size(), 1u) << "value " << v;
  }
}

TEST_F(ColdTierTest, DropColdRunRestoresCounters) {
  IndexBufferSpace space({});
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 7);
  ASSERT_GT(buffer->DemotePartition(1), 0u);

  EXPECT_EQ(buffer->DropColdRun(1), 30u);
  EXPECT_EQ(buffer->ColdPartitionCount(), 0u);
  for (size_t page = 5; page <= 7; ++page) {
    EXPECT_EQ(buffer->counters().Get(page), 10u) << "page " << page;
    EXPECT_FALSE(buffer->PageInBuffer(page)) << "page " << page;
  }
  EXPECT_TRUE(Probe(*buffer, 55).empty());
}

// Table I against the cold tier: insert/delete/update on a demoted page
// patch the run in place, keeping coverage exact — verified against a twin
// buffer that received the same DML while hot (the serial oracle).
TEST_F(ColdTierTest, DmlPatchesColdRunInPlace) {
  Metrics metrics;
  IndexBufferSpace space({}, &metrics);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  IndexBuffer* twin =
      space.CreateBuffer(indexes_[1].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 7);
  FillPages(twin, 5, 7);
  ASSERT_GT(buffer->DemotePartition(1), 0u);

  // Insert into a cold-covered page (Table I: p in B -> B.Add(t)).
  buffer->AddTuple(6, 777, Rid{6, 10});
  twin->AddTuple(6, 777, Rid{6, 10});
  // Delete from a cold-covered page (B.Remove(t)).
  EXPECT_TRUE(buffer->RemoveTuple(5, 52, Rid{5, 2}));
  EXPECT_TRUE(twin->RemoveTuple(5, 52, Rid{5, 2}));
  EXPECT_FALSE(buffer->RemoveTuple(5, 52, Rid{5, 2}));  // already gone
  // In-partition relocation (B.Update).
  buffer->UpdateTuple(7, 70, Rid{7, 0}, 5, 58, Rid{5, 11});
  twin->UpdateTuple(7, 70, Rid{7, 0}, 5, 58, Rid{5, 11});

  EXPECT_EQ(buffer->ColdEntries(), 30u);  // +1 -1 +1 -1
  EXPECT_GE(metrics.Get(kMetricColdEntriesPatched), 4);
  for (Value v : {777, 52, 58, 70, 55}) {
    EXPECT_EQ(Probe(*buffer, v), Probe(*twin, v)) << "value " << v;
  }

  // The patched page map keeps DropColdRun's counter restore exact: page 5
  // lost 52, gained 58 (net 10); page 6 gained 777 (11); page 7 lost 70
  // (9).
  buffer->DropColdRun(1);
  EXPECT_EQ(buffer->counters().Get(5), 10u);
  EXPECT_EQ(buffer->counters().Get(6), 11u);
  EXPECT_EQ(buffer->counters().Get(7), 9u);
}

TEST_F(ColdTierTest, PromoteForQueryPromotesOverlappingWithinBudget) {
  BufferSpaceOptions options;
  options.max_entries = 100;
  IndexBufferSpace space(options);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 10);  // 60 entries, partitions 1 and 2
  ASSERT_GT(buffer->DemotePartition(1), 0u);  // keys 50..79
  ASSERT_GT(buffer->DemotePartition(2), 0u);  // keys 80..109
  ASSERT_EQ(space.TotalEntries(), 0u);

  // Only partition 1 overlaps [55, 60]; partition 2 stays cold.
  const PromotionResult first = space.PromoteForQuery(buffer, 55, 60);
  EXPECT_EQ(first.partitions, 1u);
  EXPECT_EQ(first.entries, 30u);
  EXPECT_EQ(buffer->ColdPartitionCount(), 1u);
  EXPECT_EQ(buffer->TotalEntries(), 30u);

  // Disjoint range: nothing to promote.
  const PromotionResult none = space.PromoteForQuery(buffer, 500, 600);
  EXPECT_EQ(none.partitions, 0u);

  // Exhaust the hot budget; the overlapping cold partition must stay cold
  // (it keeps answering from the cold tier instead of overrunning L).
  FillPages(buffer, 11, 17);  // +70 entries -> 100 total
  ASSERT_EQ(space.FreeEntries(), 0u);
  const PromotionResult blocked = space.PromoteForQuery(buffer, 85, 90);
  EXPECT_EQ(blocked.partitions, 0u);
  EXPECT_EQ(buffer->ColdPartitionCount(), 1u);
  const std::vector<Rid> rids = Probe(*buffer, 85);
  ASSERT_EQ(rids.size(), 1u);  // still probe-able cold
  EXPECT_EQ(rids[0], (Rid{8, 5}));
}

TEST_F(ColdTierTest, MetricsTrackTierTransitions) {
  Metrics metrics;
  IndexBufferSpace space({}, &metrics);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 7);
  ASSERT_GT(buffer->DemotePartition(1), 0u);
  EXPECT_EQ(metrics.Get(kMetricColdPartitionsDemoted), 1);
  EXPECT_GT(metrics.Get(kMetricColdBytes), 0);

  (void)Probe(*buffer, 55);
  EXPECT_EQ(metrics.Get(kMetricColdHits), 1);

  ASSERT_TRUE(buffer->PromotePartition(1).ok());
  EXPECT_EQ(metrics.Get(kMetricColdPartitionsPromoted), 1);
  EXPECT_EQ(metrics.Get(kMetricColdBytes), 0);  // gauge back to zero
  EXPECT_EQ(metrics.HistogramCopy(kMetricPromotionLatencyMicros).Count(), 1u);
}

TEST_F(ColdTierTest, ProbesCountOnePerPartitionAndOneColdHitPerMatchingRun) {
  Metrics metrics;
  IndexBufferSpace space({}, &metrics);
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  // An empty buffer probes nothing and names no counter.
  (void)Probe(*buffer, 55);
  EXPECT_EQ(metrics.counters().count(kMetricIndexProbes), 0u);
  EXPECT_EQ(metrics.counters().count(kMetricColdHits), 0u);

  // Partitions 1..4 (pages 5..19). Value 55 lives twice in partition 1
  // and once in partitions 2 and 4; partitions 1..3 go cold, so one probe
  // for 55 visits 3 cold and 1 hot partition and finds a match in 2 of
  // the cold runs.
  FillPages(buffer, 5, 19);
  buffer->AddTuple(6, 55, Rid{6, 99});
  buffer->AddTuple(9, 55, Rid{9, 99});
  buffer->AddTuple(17, 55, Rid{17, 99});
  for (size_t partition = 1; partition <= 3; ++partition) {
    ASSERT_GT(buffer->DemotePartition(partition), 0u);
  }
  ASSERT_EQ(buffer->ColdPartitionCount(), 3u);
  ASSERT_EQ(buffer->PartitionCount(), 1u);

  int64_t probes = metrics.Get(kMetricIndexProbes);
  int64_t cold_hits = metrics.Get(kMetricColdHits);
  IndexBuffer::ProbeTierStats tier;
  EXPECT_EQ(Probe(*buffer, 55, &tier).size(), 4u);
  EXPECT_EQ(tier.cold_partitions, 3u);
  EXPECT_EQ(tier.hot_partitions, 1u);
  EXPECT_EQ(metrics.Get(kMetricIndexProbes) - probes, 4);
  EXPECT_EQ(metrics.Get(kMetricColdHits) - cold_hits, 2);

  // A miss still probes every partition and hits no cold run.
  probes = metrics.Get(kMetricIndexProbes);
  cold_hits = metrics.Get(kMetricColdHits);
  EXPECT_TRUE(Probe(*buffer, 1000).empty());
  EXPECT_EQ(metrics.Get(kMetricIndexProbes) - probes, 4);
  EXPECT_EQ(metrics.Get(kMetricColdHits) - cold_hits, 0);

  // A range scan counts the same way.
  probes = metrics.Get(kMetricIndexProbes);
  cold_hits = metrics.Get(kMetricColdHits);
  size_t matches = 0;
  buffer->Scan(55, 55, [&](Value, const Rid&) { ++matches; });
  EXPECT_EQ(matches, 4u);
  EXPECT_EQ(metrics.Get(kMetricIndexProbes) - probes, 4);
  EXPECT_EQ(metrics.Get(kMetricColdHits) - cold_hits, 2);
}

TEST_F(ColdTierTest, ClearDropsBothTiers) {
  IndexBufferSpace space({});
  IndexBuffer* buffer =
      space.CreateBuffer(indexes_[0].get(), SmallPartitions()).value();
  FillPages(buffer, 5, 10);
  ASSERT_GT(buffer->DemotePartition(1), 0u);
  buffer->Clear();
  EXPECT_EQ(buffer->TotalEntries(), 0u);
  EXPECT_EQ(buffer->ColdPartitionCount(), 0u);
  EXPECT_EQ(buffer->counters().Get(5), 10u);
  EXPECT_EQ(buffer->counters().Get(9), 10u);
}

}  // namespace
}  // namespace aib
