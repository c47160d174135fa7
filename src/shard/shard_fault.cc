#include "shard/shard_fault.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace aib {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Decision-event tags folded into the per-shard trace chains.
constexpr uint64_t kEventPass = 0xA0;
constexpr uint64_t kEventCrashReject = 0xC1;
constexpr uint64_t kEventHangEnter = 0x4A;
constexpr uint64_t kEventHangRevived = 0x4B;
constexpr uint64_t kEventHangExpired = 0x4C;
constexpr uint64_t kEventBrownoutError = 0xB1;
constexpr uint64_t kEventBrownoutDelay = 0xB2;
constexpr uint64_t kEventBrownoutPass = 0xB0;
constexpr uint64_t kEventBrownoutExpired = 0xB3;

/// splitmix64 finalizer; decorrelates per-shard Rng streams and spreads
/// the fold of per-shard traces.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* ShardOutageName(ShardOutage outage) {
  switch (outage) {
    case ShardOutage::kNone:
      return "none";
    case ShardOutage::kCrash:
      return "crash";
    case ShardOutage::kHang:
      return "hang";
    case ShardOutage::kBrownout:
      return "brownout";
  }
  return "unknown";
}

ShardFaultInjector::ShardFaultInjector(size_t num_shards,
                                       ShardFaultOptions options,
                                       Metrics* metrics)
    : metrics_(metrics), shards_(num_shards) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].rng = Rng(options.seed ^ Mix(static_cast<uint64_t>(s) + 1));
  }
}

void ShardFaultInjector::Note(ShardState* state, uint64_t event) {
  ++state->decisions;
  state->trace = (state->trace ^ event) * kFnvPrime;
  state->trace = (state->trace ^ state->decisions) * kFnvPrime;
}

void ShardFaultInjector::RecomputeActive() {
  bool any = false;
  for (const ShardState& state : shards_) {
    any |= state.outage != ShardOutage::kNone;
  }
  active_.store(any, std::memory_order_release);
}

void ShardFaultInjector::Crash(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_[shard].outage = ShardOutage::kCrash;
  ++outages_armed_;
  if (metrics_ != nullptr) metrics_->Increment(kMetricShardOutagesArmed);
  RecomputeActive();
}

void ShardFaultInjector::Hang(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_[shard].outage = ShardOutage::kHang;
  ++outages_armed_;
  if (metrics_ != nullptr) metrics_->Increment(kMetricShardOutagesArmed);
  RecomputeActive();
}

void ShardFaultInjector::Brownout(size_t shard,
                                  const BrownoutOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_[shard].outage = ShardOutage::kBrownout;
  shards_[shard].brownout = options;
  ++outages_armed_;
  if (metrics_ != nullptr) metrics_->Increment(kMetricShardOutagesArmed);
  RecomputeActive();
}

void ShardFaultInjector::Revive(size_t shard) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_[shard].outage = ShardOutage::kNone;
    RecomputeActive();
  }
  revive_cv_.notify_all();
}

ShardOutage ShardFaultInjector::outage(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard].outage;
}

Status ShardFaultInjector::Admit(size_t shard, const QueryControl* control) {
  if (!any_armed()) return Status::Ok();
  std::unique_lock<std::mutex> lock(mu_);
  ShardState& state = shards_[shard];
  switch (state.outage) {
    case ShardOutage::kNone:
      // No trace event: the unarmed fast path above skips the fold too,
      // so the chain stays a function of the *outage* decisions alone.
      return Status::Ok();
    case ShardOutage::kCrash:
      Note(&state, kEventCrashReject);
      if (metrics_ != nullptr) metrics_->Increment(kMetricShardCrashRejects);
      return Status::IoError("shard " + std::to_string(shard) +
                             " crashed (injected)");
    case ShardOutage::kHang: {
      Note(&state, kEventHangEnter);
      if (metrics_ != nullptr) metrics_->Increment(kMetricShardHangWaits);
      // Wait for revive in short slices so caller deadline/cancel stay
      // responsive; the request "never resolves" only as long as nobody
      // is asking it to stop.
      while (state.outage == ShardOutage::kHang) {
        if (control != nullptr) {
          const Status caller = control->Check();
          if (!caller.ok()) {
            Note(&state, kEventHangExpired);
            return caller;
          }
        }
        revive_cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
      Note(&state, kEventHangRevived);
      // Revived (or outage replaced): fall through to whatever is armed
      // now by re-admitting under the new state.
      if (state.outage == ShardOutage::kNone) return Status::Ok();
      lock.unlock();
      return Admit(shard, control);
    }
    case ShardOutage::kBrownout: {
      const BrownoutOptions& brownout = state.brownout;
      if (brownout.error_rate > 0.0 &&
          state.rng.Bernoulli(brownout.error_rate)) {
        Note(&state, kEventBrownoutError);
        if (metrics_ != nullptr) {
          metrics_->Increment(kMetricShardBrownoutErrors);
        }
        return Status::IoError("shard " + std::to_string(shard) +
                               " brownout error (injected)");
      }
      const bool delayed = brownout.latency_rate > 0.0 &&
                           state.rng.Bernoulli(brownout.latency_rate);
      Note(&state, delayed ? kEventBrownoutDelay : kEventBrownoutPass);
      if (delayed) {
        if (metrics_ != nullptr) {
          metrics_->Increment(kMetricShardBrownoutDelays);
        }
        // Sleep in short slices, like the hang branch, so the caller's
        // deadline or cancel cuts the delay short.
        const auto until = std::chrono::steady_clock::now() + brownout.latency;
        lock.unlock();
        for (auto now = std::chrono::steady_clock::now(); now < until;
             now = std::chrono::steady_clock::now()) {
          if (control != nullptr) {
            const Status caller = control->Check();
            if (!caller.ok()) {
              lock.lock();
              Note(&state, kEventBrownoutExpired);
              return caller;
            }
          }
          std::this_thread::sleep_for(
              std::min<std::chrono::steady_clock::duration>(
                  until - now, std::chrono::milliseconds(1)));
        }
      }
      return Status::Ok();
    }
  }
  Note(&state, kEventPass);
  return Status::Ok();
}

uint64_t ShardFaultInjector::TraceHash() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t hash = 1469598103934665603ULL;
  for (size_t s = 0; s < shards_.size(); ++s) {
    hash ^= Mix(shards_[s].trace + s);
  }
  return hash;
}

size_t ShardFaultInjector::outages_armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outages_armed_;
}

}  // namespace aib
