#include "common/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "common/partition_latch.h"

namespace aib {
namespace {

TEST(MetricsTest, UnsetCounterIsZero) {
  Metrics m;
  EXPECT_EQ(m.Get("nope"), 0);
}

TEST(MetricsTest, EverySpellingOfANameReachesOneCounter) {
  Metrics m;
  const std::string owned = kMetricLatchExclusiveAcquires;
  const std::string padded = owned + ".suffix";
  const std::string_view view(padded.data(), owned.size());
  m.Increment(kMetricLatchExclusiveAcquires);
  m.Increment(owned, 2);
  m.Increment(view, 3);
  m.Counter(view)->fetch_add(4);
  EXPECT_EQ(m.Counter(owned), m.Counter(kMetricLatchExclusiveAcquires));
  EXPECT_EQ(m.Get(kMetricLatchExclusiveAcquires), 10);
  EXPECT_EQ(m.Get(view), 10);
  EXPECT_EQ(m.counters(), (std::map<std::string, int64_t>{{owned, 10}}));
}

TEST(MetricsTest, LatchAcquisitionsCountEachStripeAndLatchOnce) {
  Metrics m;
  PartitionLatchTable latches(&m);  // 32 stripes
  std::shared_mutex mu;
  { auto lock = latches.AcquireExclusiveTimed(mu); }
  {
    auto a = latches.AcquireSharedTimed(mu);
    auto b = latches.AcquireSharedTimed(mu);
  }
  EXPECT_EQ(m.Get(kMetricLatchExclusiveAcquires), 1);
  EXPECT_EQ(m.Get(kMetricLatchSharedAcquires), 2);
  // Keys 1 and 33 share a stripe: three keys, two stripes.
  {
    auto set = latches.AcquireShared(latches.MaskOf(1) | latches.MaskOf(33) |
                                     latches.MaskOf(2));
    EXPECT_FALSE(set.empty());
  }
  EXPECT_EQ(m.Get(kMetricLatchSharedAcquires), 4);
  { auto set = latches.AcquireExclusive({5, 37, 6}); }
  EXPECT_EQ(m.Get(kMetricLatchExclusiveAcquires), 3);
  { auto set = latches.AcquireAllShared(); }
  EXPECT_EQ(m.Get(kMetricLatchSharedAcquires), 4 + 32);
  EXPECT_EQ(m.Get(kMetricLatchWaits), 0);
  // Every stripe was released: an exclusive holder gets all of them.
  { auto all = latches.AcquireExclusive({0, 1, 2, 3, 4, 5, 6, 31}); }
  EXPECT_EQ(m.Get(kMetricLatchWaits), 0);
}

TEST(MetricsTest, IncrementAccumulates) {
  Metrics m;
  m.Increment("x");
  m.Increment("x", 4);
  EXPECT_EQ(m.Get("x"), 5);
}

TEST(MetricsTest, NegativeDelta) {
  Metrics m;
  m.Increment("x", 10);
  m.Increment("x", -3);
  EXPECT_EQ(m.Get("x"), 7);
}

TEST(MetricsTest, ResetClearsAll) {
  Metrics m;
  m.Increment("a");
  m.Increment("b", 2);
  m.Reset();
  EXPECT_EQ(m.Get("a"), 0);
  EXPECT_EQ(m.Get("b"), 0);
  EXPECT_TRUE(m.counters().empty());
}

TEST(MetricsTest, ToStringSortedByName) {
  Metrics m;
  m.Increment("zzz", 1);
  m.Increment("aaa", 2);
  EXPECT_EQ(m.ToString(), "aaa=2\nzzz=1\n");
}

TEST(MetricsTest, MergeFromAddsAndCreates) {
  Metrics a;
  Metrics b;
  a.Increment("shared", 3);
  b.Increment("shared", 4);
  b.Increment("only_b", 2);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("shared"), 7);
  EXPECT_EQ(a.Get("only_b"), 2);
  EXPECT_EQ(b.Get("shared"), 4);  // source untouched
}

TEST(MetricsTest, MergeFromManyRegistriesRollsUp) {
  // The fleet-counter pattern: one rollup registry accumulating several
  // per-shard registries.
  Metrics shard0;
  Metrics shard1;
  Metrics shard2;
  shard0.Increment("pages", 1);
  shard1.Increment("pages", 10);
  shard2.Increment("pages", 100);
  shard1.Increment("faults", 5);
  Metrics fleet;
  fleet.MergeFrom(shard0);
  fleet.MergeFrom(shard1);
  fleet.MergeFrom(shard2);
  EXPECT_EQ(fleet.Get("pages"), 111);
  EXPECT_EQ(fleet.Get("faults"), 5);
}

TEST(MetricsTest, MergeFromEmptyIsNoOp) {
  Metrics a;
  a.Increment("x");
  Metrics empty;
  a.MergeFrom(empty);
  EXPECT_EQ(a.Get("x"), 1);
  EXPECT_EQ(a.counters().size(), 1u);
}

TEST(MetricsTest, MergeFromRollsUpDegradationAndShardHealthCounters) {
  // FleetCounters() shape: each shard's registry carries its own
  // DegradationManager quarantines, the router registry carries the
  // per-shard health counters, and the rollup sums them all per name.
  Metrics shard0;
  Metrics shard1;
  shard0.Increment(kMetricPartitionsQuarantined, 2);
  shard1.Increment(kMetricPartitionsQuarantined, 1);
  shard1.Increment(kMetricServiceExecuted, 40);
  Metrics router;
  router.Increment(kMetricShardBreakerOpened, 3);
  router.Increment(kMetricShardBreakerClosed, 2);
  router.Increment(kMetricShardBreakerFastFails, 17);
  router.Increment(kMetricShardCrashRejects, 8);
  router.Increment(kMetricShardLegsHedged, 5);
  router.Increment(kMetricShardHedgeWins, 1);
  router.Increment(kMetricShardRestarts, 1);
  Metrics fleet;
  fleet.MergeFrom(shard0);
  fleet.MergeFrom(shard1);
  fleet.MergeFrom(router);
  EXPECT_EQ(fleet.Get(kMetricPartitionsQuarantined), 3);
  EXPECT_EQ(fleet.Get(kMetricServiceExecuted), 40);
  EXPECT_EQ(fleet.Get(kMetricShardBreakerOpened), 3);
  EXPECT_EQ(fleet.Get(kMetricShardBreakerClosed), 2);
  EXPECT_EQ(fleet.Get(kMetricShardBreakerFastFails), 17);
  EXPECT_EQ(fleet.Get(kMetricShardCrashRejects), 8);
  EXPECT_EQ(fleet.Get(kMetricShardLegsHedged), 5);
  EXPECT_EQ(fleet.Get(kMetricShardHedgeWins), 1);
  EXPECT_EQ(fleet.Get(kMetricShardRestarts), 1);
  // Sources stay untouched — the rollup is a read-side view.
  EXPECT_EQ(shard0.Get(kMetricPartitionsQuarantined), 2);
  EXPECT_EQ(router.Get(kMetricShardBreakerOpened), 3);
}

TEST(MetricsTest, MergeFromRollsUpColdTierCounters) {
  // Two-tier rollup shape: each shard's registry carries its own tiering
  // counters and promotion-latency samples; FleetCounters() sums the
  // counters per name and pools the histograms. cold_bytes is gauge-style
  // (demotes add, promotes subtract), so negative deltas must roll up too.
  Metrics shard0;
  Metrics shard1;
  shard0.Increment(kMetricColdPartitionsDemoted, 3);
  shard0.Increment(kMetricColdPartitionsPromoted, 2);
  shard0.Increment(kMetricColdBytes, 4096);
  shard0.Increment(kMetricColdBytes, -1024);
  shard0.Increment(kMetricColdHits, 7);
  shard0.Observe(kMetricPromotionLatencyMicros, 120.0);
  shard0.Observe(kMetricPromotionLatencyMicros, 80.0);
  shard1.Increment(kMetricColdPartitionsDemoted, 1);
  shard1.Increment(kMetricColdRunsInvalidated, 5);
  shard1.Increment(kMetricColdHits, 4);
  shard1.Increment(kMetricColdEntriesPatched, 9);
  shard1.Observe(kMetricPromotionLatencyMicros, 300.0);
  Metrics fleet;
  fleet.MergeFrom(shard0);
  fleet.MergeFrom(shard1);
  EXPECT_EQ(fleet.Get(kMetricColdPartitionsDemoted), 4);
  EXPECT_EQ(fleet.Get(kMetricColdPartitionsPromoted), 2);
  EXPECT_EQ(fleet.Get(kMetricColdBytes), 3072);
  EXPECT_EQ(fleet.Get(kMetricColdHits), 11);
  EXPECT_EQ(fleet.Get(kMetricColdRunsInvalidated), 5);
  EXPECT_EQ(fleet.Get(kMetricColdEntriesPatched), 9);
  const Histogram promote = fleet.HistogramCopy(kMetricPromotionLatencyMicros);
  EXPECT_EQ(promote.Count(), 3u);
  EXPECT_DOUBLE_EQ(promote.Min(), 80.0);
  EXPECT_DOUBLE_EQ(promote.Max(), 300.0);
  // Sources stay untouched — the rollup is a read-side view.
  EXPECT_EQ(shard0.Get(kMetricColdPartitionsDemoted), 3);
  EXPECT_EQ(
      shard1.HistogramCopy(kMetricPromotionLatencyMicros).Count(), 1u);
}

TEST(MetricsTest, MergeFromPoolsHistogramSamples) {
  // Per-shard latency histograms merge into an exact fleet distribution:
  // the pooled percentiles are those of the concatenated samples.
  Metrics shard0;
  Metrics shard1;
  for (int i = 1; i <= 4; ++i) shard0.Observe("latency_us", 100.0 * i);
  for (int i = 1; i <= 4; ++i) shard1.Observe("latency_us", 1000.0 * i);
  shard1.Observe("queue_wait_us", 7.0);
  Metrics fleet;
  fleet.MergeFrom(shard0);
  fleet.MergeFrom(shard1);
  const Histogram merged = fleet.HistogramCopy("latency_us");
  EXPECT_EQ(merged.Count(), 8u);
  EXPECT_DOUBLE_EQ(merged.Min(), 100.0);
  EXPECT_DOUBLE_EQ(merged.Max(), 4000.0);
  EXPECT_DOUBLE_EQ(merged.Sum(), 1000.0 + 10000.0);
  EXPECT_EQ(fleet.HistogramCopy("queue_wait_us").Count(), 1u);
  // Merging more samples into the rollup later keeps pooling, not
  // replacing.
  Metrics late;
  late.Observe("latency_us", 50.0);
  fleet.MergeFrom(late);
  EXPECT_EQ(fleet.HistogramCopy("latency_us").Count(), 9u);
  EXPECT_DOUBLE_EQ(fleet.HistogramCopy("latency_us").Min(), 50.0);
}

}  // namespace
}  // namespace aib
