#ifndef AIB_COMMON_METRICS_H_
#define AIB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/histogram.h"

namespace aib {

/// Named-counter registry used by the storage engine, executor, and query
/// service to account simulated I/O and index work.
///
/// Thread-safe: counters live in hash-sharded maps (shard chosen by name
/// hash), each shard guarded by a reader-writer lock that is only taken
/// exclusively when a counter name is seen for the first time; the hot
/// Increment path is a shared-lock lookup plus one relaxed atomic add, so
/// worker threads touching different counters do not contend.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  void Increment(std::string_view name, int64_t delta = 1) {
    FindOrCreate(name)->fetch_add(delta, std::memory_order_relaxed);
  }

  /// Stable handle to a counter for hot paths: resolve the name once, then
  /// bump the atomic directly (relaxed) with no map lookup per event.
  /// Handles stay valid for the lifetime of the Metrics object — values
  /// are heap-allocated and never move — EXCEPT across Reset(), which
  /// drops the counters a handle points into; re-resolve after Reset()
  /// (engine components never Reset a live registry; only tests do).
  std::atomic<int64_t>* Counter(std::string_view name) {
    return FindOrCreate(name);
  }

  int64_t Get(std::string_view name) const {
    const Shard& shard = ShardFor(name);
    std::shared_lock lock(shard.mu);
    auto it = shard.counters.find(name);
    return it == shard.counters.end()
               ? 0
               : it->second->load(std::memory_order_relaxed);
  }

  /// Records `value` into the named histogram (e.g. latch wait time in
  /// microseconds). Histograms are off the hot path by design — callers
  /// only Observe on already-slow events (a blocked latch acquisition), so
  /// one registry-wide mutex is fine.
  void Observe(const std::string& name, double value);

  /// Copy of the named histogram (empty if never observed).
  Histogram HistogramCopy(const std::string& name) const;

  /// Snapshot of all histograms, sorted by name.
  std::map<std::string, Histogram> histograms() const;

  /// Drops every counter and histogram (names included).
  void Reset() {
    for (Shard& shard : shards_) {
      std::unique_lock lock(shard.mu);
      shard.counters.clear();
    }
    std::lock_guard lock(histograms_mu_);
    histograms_.clear();
  }

  /// Merged snapshot of all shards, sorted by name. Counters incremented
  /// concurrently with the snapshot may or may not be reflected.
  std::map<std::string, int64_t> counters() const;

  /// Adds every counter of `other` into this registry (creating names as
  /// needed) and appends the samples of every histogram of `other` into
  /// the histogram of the same name. Used to roll per-shard registries up
  /// into fleet-wide totals. Snapshot semantics match counters():
  /// concurrent increments on `other` may or may not be included.
  void MergeFrom(const Metrics& other);

  /// One "name=value" pair per line, sorted by name (counters only;
  /// histograms are surfaced via HistogramCopy(...).Summary()).
  std::string ToString() const;

 private:
  static constexpr size_t kShards = 16;

  /// Transparent: a lookup by a kMetric* constant builds no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  struct Shard {
    mutable std::shared_mutex mu;
    /// Values are heap-allocated so rehashing never moves a live atomic.
    std::unordered_map<std::string, std::unique_ptr<std::atomic<int64_t>>,
                       NameHash, std::equal_to<>>
        counters;
  };

  const Shard& ShardFor(std::string_view name) const {
    return shards_[NameHash{}(name) % kShards];
  }
  Shard& ShardFor(std::string_view name) {
    return shards_[NameHash{}(name) % kShards];
  }

  std::atomic<int64_t>* FindOrCreate(std::string_view name);

  std::array<Shard, kShards> shards_;

  /// Histograms are only touched on slow events (blocked latch
  /// acquisitions, bench summaries), so a single mutex suffices.
  mutable std::mutex histograms_mu_;
  std::map<std::string, Histogram> histograms_;
};

// Well-known counter names, shared between storage, exec, service, and
// benches.
inline constexpr char kMetricPagesRead[] = "storage.pages_read";
inline constexpr char kMetricPagesWritten[] = "storage.pages_written";
inline constexpr char kMetricPagesSkipped[] = "exec.pages_skipped";
inline constexpr char kMetricBufferHits[] = "bufferpool.hits";
inline constexpr char kMetricBufferMisses[] = "bufferpool.misses";
inline constexpr char kMetricBufferPinWaits[] = "bufferpool.pin_waits";
inline constexpr char kMetricIndexProbes[] = "index.probes";
inline constexpr char kMetricIndexInserts[] = "index.inserts";
inline constexpr char kMetricIndexRemoves[] = "index.removes";
inline constexpr char kMetricIbEntriesAdded[] = "index_buffer.entries_added";
inline constexpr char kMetricIbEntriesDropped[] =
    "index_buffer.entries_dropped";
inline constexpr char kMetricIbPartitionsDropped[] =
    "index_buffer.partitions_dropped";
inline constexpr char kMetricServiceSubmitted[] = "service.queries_submitted";
inline constexpr char kMetricServiceRejected[] = "service.queries_rejected";
inline constexpr char kMetricServiceExecuted[] = "service.queries_executed";
/// Whole-statement re-runs after a transient or corruption failure.
inline constexpr char kMetricServiceRetried[] = "service.queries_retried";
inline constexpr char kMetricSharedScanAttaches[] = "sharedscan.attaches";
inline constexpr char kMetricSharedScanPagesShared[] =
    "sharedscan.pages_shared";
inline constexpr char kMetricFaultsInjected[] = "faults.injected";
inline constexpr char kMetricFaultLatencyTicks[] = "faults.latency_ticks";
inline constexpr char kMetricTransientRetries[] = "faults.transient_retries";
inline constexpr char kMetricQueriesTimedOut[] = "service.queries_timed_out";
inline constexpr char kMetricQueriesCancelled[] = "service.queries_cancelled";
inline constexpr char kMetricPartitionsQuarantined[] =
    "index_buffer.partitions_quarantined";
inline constexpr char kMetricDegradedQueries[] = "exec.degraded_queries";
inline constexpr char kMetricDmlStatements[] = "exec.dml_statements";
// Sharding layer (routing + scatter-gather; live in the router's own
// registry, rolled into FleetCounters()).
inline constexpr char kMetricShardStatementsRouted[] =
    "shard.statements_routed";
inline constexpr char kMetricShardScatterStatements[] =
    "shard.scatter_statements";
inline constexpr char kMetricShardLegsDispatched[] = "shard.legs_dispatched";
inline constexpr char kMetricShardLegsRetried[] = "shard.legs_retried";
inline constexpr char kMetricShardRowsMigrated[] = "shard.rows_migrated";
// Partition-granular latching (common/partition_latch). Acquire counters
// count stripes/latches taken; `latch.waits` counts acquisitions that
// missed the try_lock fast path, with blocked time recorded in the
// `latch.wait_us` histogram. Optimistic counters track the version-
// validated probe path (see PartialIndexProbe).
inline constexpr char kMetricLatchSharedAcquires[] = "latch.shared_acquires";
inline constexpr char kMetricLatchExclusiveAcquires[] =
    "latch.exclusive_acquires";
inline constexpr char kMetricLatchWaits[] = "latch.waits";
inline constexpr char kMetricLatchOptimisticRetries[] =
    "latch.optimistic_retries";
inline constexpr char kMetricLatchOptimisticFallbacks[] =
    "latch.optimistic_fallbacks";
// Histogram name (Observe/HistogramCopy, not a counter).
inline constexpr char kMetricLatchWaitMicros[] = "latch.wait_us";
// Fleet fault tolerance (shard outage injection, per-shard circuit
// breakers, hedged scatter legs, shard restarts). Outage and breaker
// counters live in the router's registry, rolled into FleetCounters().
inline constexpr char kMetricShardOutagesArmed[] = "shard.outages_armed";
inline constexpr char kMetricShardCrashRejects[] = "shard.crash_rejects";
inline constexpr char kMetricShardHangWaits[] = "shard.hang_waits";
inline constexpr char kMetricShardBrownoutErrors[] = "shard.brownout_errors";
inline constexpr char kMetricShardBrownoutDelays[] = "shard.brownout_delays";
inline constexpr char kMetricShardBreakerOpened[] = "shard.breaker_opened";
inline constexpr char kMetricShardBreakerClosed[] = "shard.breaker_closed";
inline constexpr char kMetricShardBreakerProbes[] = "shard.breaker_probes";
inline constexpr char kMetricShardBreakerFastFails[] =
    "shard.breaker_fast_fails";
inline constexpr char kMetricShardLegsHedged[] = "shard.legs_hedged";
inline constexpr char kMetricShardHedgeWins[] = "shard.hedge_wins";
inline constexpr char kMetricShardRestarts[] = "shard.restarts";
// Scan-resistant eviction (segmented buffer pool) and shared scans.
inline constexpr char kMetricBufferPromotions[] = "bufferpool.promotions";
inline constexpr char kMetricBufferDemotions[] = "bufferpool.demotions";
/// Pages delivered to scan consumers (the numerator of the page-reuse
/// ratio; the denominator is storage.pages_read).
inline constexpr char kMetricScanPagesServed[] = "exec.scan_pages_served";
// Two-tier Index Buffer Space (hot B+-tree / cold compacted runs).
// Demotion compacts a victim partition into a read-only cold run instead
// of dropping it; promotion restores it into the hot tier at memcpy cost.
// cold_bytes is a gauge-style counter (incremented on demote, decremented
// on promote/drop, moved by DML patches) of cold-run bytes.
inline constexpr char kMetricColdPartitionsDemoted[] =
    "core.partitions_demoted";
inline constexpr char kMetricColdPartitionsPromoted[] =
    "core.partitions_promoted";
inline constexpr char kMetricColdBytes[] = "core.cold_bytes";
inline constexpr char kMetricColdHits[] = "core.cold_hits";
inline constexpr char kMetricColdRunsInvalidated[] =
    "core.cold_runs_invalidated";
inline constexpr char kMetricColdEntriesPatched[] =
    "core.cold_entries_patched";
// Histogram name: wall time of each cold->hot promotion, microseconds.
inline constexpr char kMetricPromotionLatencyMicros[] =
    "core.promotion_latency_us";

}  // namespace aib

#endif  // AIB_COMMON_METRICS_H_
