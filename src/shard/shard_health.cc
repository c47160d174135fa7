#include "shard/shard_health.h"

#include <algorithm>
#include <limits>

namespace aib {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfProbe:
      return "half-probe";
  }
  return "unknown";
}

ShardHealthTracker::ShardHealthTracker(size_t num_shards,
                                       CircuitBreakerOptions options,
                                       Metrics* metrics)
    : options_(options), metrics_(metrics), rng_(options.seed),
      shards_(num_shards) {
  options_.window = std::max<size_t>(1, options_.window);
  for (ShardState& state : shards_) {
    state.window.resize(options_.window);
  }
}

void ShardHealthTracker::Push(ShardState* state, bool ok,
                              std::chrono::nanoseconds latency) {
  Outcome outcome;
  outcome.ok = ok;
  outcome.latency_us = static_cast<uint32_t>(std::min<int64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(latency).count(),
      std::numeric_limits<uint32_t>::max()));
  state->window[state->next] = outcome;
  state->next = (state->next + 1) % state->window.size();
  state->samples = std::min(state->samples + 1, state->window.size());
  state->consecutive_failures = ok ? 0 : state->consecutive_failures + 1;
}

void ShardHealthTracker::TripOpen(ShardState* state) {
  state->state = BreakerState::kOpen;
  state->probe_in_flight = false;
  state->probe_delay =
      JitteredBackoff(options_.probe_backoff, state->open_streak, rng_);
  ++state->open_streak;
  ++state->times_opened;
  state->probe_at = std::chrono::steady_clock::now() + state->probe_delay;
  if (metrics_ != nullptr) metrics_->Increment(kMetricShardBreakerOpened);
}

ShardHealthTracker::Admit ShardHealthTracker::AdmitRequest(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& state = shards_[shard];
  switch (state.state) {
    case BreakerState::kClosed:
      return Admit::kAllow;
    case BreakerState::kOpen:
      if (std::chrono::steady_clock::now() >= state.probe_at) {
        state.state = BreakerState::kHalfProbe;
        state.probe_in_flight = true;
        if (metrics_ != nullptr) {
          metrics_->Increment(kMetricShardBreakerProbes);
        }
        return Admit::kProbe;
      }
      if (metrics_ != nullptr) {
        metrics_->Increment(kMetricShardBreakerFastFails);
      }
      return Admit::kFailFast;
    case BreakerState::kHalfProbe:
      // One probe at a time; everyone else keeps failing fast until the
      // probe's outcome lands.
      if (metrics_ != nullptr) {
        metrics_->Increment(kMetricShardBreakerFastFails);
      }
      return Admit::kFailFast;
  }
  return Admit::kAllow;
}

void ShardHealthTracker::RecordSuccess(size_t shard,
                                       std::chrono::nanoseconds latency) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& state = shards_[shard];
  Push(&state, /*ok=*/true, latency);
  if (state.state == BreakerState::kHalfProbe) {
    // The probe came back healthy: close, and forget the failure history
    // that tripped us. Readers iterate window[0..samples) while writes
    // continue at `next`, so restart the ring with the probe's own
    // outcome at slot 0 — otherwise the error-rate trip, hedge quantile,
    // and snapshot would keep reading outage-era entries.
    state.state = BreakerState::kClosed;
    state.probe_in_flight = false;
    state.open_streak = 0;
    const size_t last =
        (state.next + state.window.size() - 1) % state.window.size();
    state.window[0] = state.window[last];
    state.next = 1 % state.window.size();
    state.samples = 1;
    state.consecutive_failures = 0;
    if (metrics_ != nullptr) metrics_->Increment(kMetricShardBreakerClosed);
  }
}

void ShardHealthTracker::RecordFailure(size_t shard,
                                       std::chrono::nanoseconds latency) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& state = shards_[shard];
  Push(&state, /*ok=*/false, latency);
  if (state.state == BreakerState::kHalfProbe) {
    // Probe failed: back to Open with a longer (jittered) delay.
    TripOpen(&state);
    return;
  }
  if (state.state != BreakerState::kClosed) return;
  if (state.consecutive_failures >= options_.consecutive_failures) {
    TripOpen(&state);
    return;
  }
  if (state.samples >= options_.min_samples) {
    size_t failures = 0;
    for (size_t i = 0; i < state.samples; ++i) {
      if (!state.window[i].ok) ++failures;
    }
    if (static_cast<double>(failures) >=
        options_.error_threshold * static_cast<double>(state.samples)) {
      TripOpen(&state);
    }
  }
}

void ShardHealthTracker::Reset(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& state = shards_[shard];
  const size_t window = state.window.size();
  state = ShardState();
  state.window.resize(window);
}

std::chrono::microseconds ShardHealthTracker::HedgeDelay(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const ShardState& state = shards_[shard];
  std::vector<uint32_t> ok_latencies;
  ok_latencies.reserve(state.samples);
  for (size_t i = 0; i < state.samples; ++i) {
    if (state.window[i].ok) ok_latencies.push_back(state.window[i].latency_us);
  }
  if (ok_latencies.size() < options_.hedge_min_samples) {
    return std::max(options_.hedge_default, options_.hedge_floor);
  }
  std::sort(ok_latencies.begin(), ok_latencies.end());
  const double q = std::clamp(options_.hedge_quantile, 0.0, 1.0);
  const size_t index = std::min(
      ok_latencies.size() - 1,
      static_cast<size_t>(q * static_cast<double>(ok_latencies.size())));
  return std::max(options_.hedge_floor,
                  std::chrono::microseconds(ok_latencies[index]));
}

BreakerState ShardHealthTracker::state(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard].state;
}

ShardHealthSnapshot ShardHealthTracker::snapshot(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const ShardState& state = shards_[shard];
  ShardHealthSnapshot snap;
  snap.state = state.state;
  snap.samples = state.samples;
  snap.consecutive_failures = state.consecutive_failures;
  snap.times_opened = state.times_opened;
  snap.probe_delay =
      state.state == BreakerState::kClosed ? std::chrono::microseconds{0}
                                           : state.probe_delay;
  for (size_t i = 0; i < state.samples; ++i) {
    if (!state.window[i].ok) ++snap.failures;
  }
  return snap;
}

}  // namespace aib
