#ifndef AIB_SHARD_SHARD_HEALTH_H_
#define AIB_SHARD_SHARD_HEALTH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/backoff.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace aib {

/// Circuit-breaker state of one shard.
enum class BreakerState : uint8_t {
  /// Healthy: requests flow.
  kClosed,
  /// Tripped: requests fail fast until the probe backoff elapses.
  kOpen,
  /// One probe request is in flight; everything else still fails fast.
  /// Probe success closes the breaker, probe failure re-opens it with a
  /// longer backoff.
  kHalfProbe,
};

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  /// Seed of the jittered probe-backoff draws.
  uint64_t seed = 1;
  /// Rolling outcome window per shard (ring of ok/error + latency).
  size_t window = 64;
  /// The error-rate trip needs at least this many outcomes in the window.
  size_t min_samples = 8;
  /// Trip when the window error rate reaches this...
  double error_threshold = 0.5;
  /// ...or when this many failures arrive back to back (catches a crash
  /// faster than the windowed rate).
  size_t consecutive_failures = 5;
  /// Open → HalfProbe schedule: attempt k (consecutive opens without an
  /// intervening close) waits JitteredBackoff(probe_backoff, k).
  BackoffPolicy probe_backoff{
      std::chrono::microseconds{10000},   // 10ms base
      std::chrono::microseconds{2000000},  // 2s cap
      2.0, 0.5};
  /// Hedge delay = this quantile of the window's successful latencies...
  double hedge_quantile = 0.95;
  /// ...clamped below by the floor; used before enough samples exist.
  std::chrono::microseconds hedge_floor{1000};
  std::chrono::microseconds hedge_default{5000};
  /// Successful latency samples needed before the quantile is trusted.
  size_t hedge_min_samples = 8;
};

/// Introspection snapshot of one shard's health (shell `stats`, tests).
struct ShardHealthSnapshot {
  BreakerState state = BreakerState::kClosed;
  size_t samples = 0;
  size_t failures = 0;
  size_t consecutive_failures = 0;
  /// Times the breaker tripped since construction/Reset.
  size_t times_opened = 0;
  /// Current Open → probe delay (zero when closed).
  std::chrono::microseconds probe_delay{0};
};

/// Per-shard rolling error/latency window feeding a Closed → Open →
/// HalfProbe circuit breaker, consulted by ShardedDatabase's leg runner
/// before every select and DML leg dispatch. The same window's latency
/// quantile supplies the hedge delay, so "this shard is slow lately"
/// drives both when to hedge and when to stop asking entirely.
///
/// Contract: callers record the outcome of every request that was
/// actually dispatched (RecordSuccess/RecordFailure) and record nothing
/// for fail-fast refusals — refusals must not feed the window that causes
/// them. Probe attribution is positional: in HalfProbe exactly one
/// request was admitted, so the next outcome recorded for the shard
/// resolves the probe.
///
/// Thread-safe; one mutex, control-plane only.
class ShardHealthTracker {
 public:
  explicit ShardHealthTracker(size_t num_shards,
                              CircuitBreakerOptions options = {},
                              Metrics* metrics = nullptr);

  ShardHealthTracker(const ShardHealthTracker&) = delete;
  ShardHealthTracker& operator=(const ShardHealthTracker&) = delete;

  enum class Admit : uint8_t {
    /// Dispatch normally.
    kAllow,
    /// Dispatch as the half-open probe (single flight).
    kProbe,
    /// Refuse without dispatching (Status::Unavailable upstream).
    kFailFast,
  };

  /// Admission decision for one request to `shard`. May transition the
  /// breaker Open → HalfProbe when the probe backoff has elapsed.
  Admit AdmitRequest(size_t shard);

  void RecordSuccess(size_t shard, std::chrono::nanoseconds latency);
  void RecordFailure(size_t shard, std::chrono::nanoseconds latency);

  /// Fresh start after a shard restart: empty window, Closed, backoff
  /// streak cleared.
  void Reset(size_t shard);

  /// Quantile-based hedge delay for `shard` (see CircuitBreakerOptions).
  std::chrono::microseconds HedgeDelay(size_t shard) const;

  BreakerState state(size_t shard) const;
  ShardHealthSnapshot snapshot(size_t shard) const;

 private:
  struct Outcome {
    bool ok = false;
    uint32_t latency_us = 0;
  };

  struct ShardState {
    BreakerState state = BreakerState::kClosed;
    /// Ring buffer of the last `window` outcomes.
    std::vector<Outcome> window;
    size_t next = 0;
    size_t samples = 0;
    size_t consecutive_failures = 0;
    size_t times_opened = 0;
    /// Consecutive opens without a close; indexes the probe backoff.
    size_t open_streak = 0;
    std::chrono::steady_clock::time_point probe_at{};
    std::chrono::microseconds probe_delay{0};
    bool probe_in_flight = false;
  };

  void Push(ShardState* state, bool ok, std::chrono::nanoseconds latency);
  void TripOpen(ShardState* state);  // callers hold mu_

  CircuitBreakerOptions options_;
  Metrics* metrics_;  // not owned; may be null
  mutable std::mutex mu_;
  Rng rng_;
  std::vector<ShardState> shards_;
};

}  // namespace aib

#endif  // AIB_SHARD_SHARD_HEALTH_H_
