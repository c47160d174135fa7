#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/backoff.h"
#include "shard/shard_fault.h"
#include "shard/shard_health.h"

namespace aib {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// --- JitteredBackoff --------------------------------------------------------

TEST(JitteredBackoffTest, GrowsExponentiallyAndCapsWithoutJitter) {
  BackoffPolicy policy;
  policy.base = microseconds{100};
  policy.cap = microseconds{800};
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(JitteredBackoff(policy, 0, rng), microseconds{100});
  EXPECT_EQ(JitteredBackoff(policy, 1, rng), microseconds{200});
  EXPECT_EQ(JitteredBackoff(policy, 2, rng), microseconds{400});
  EXPECT_EQ(JitteredBackoff(policy, 3, rng), microseconds{800});
  EXPECT_EQ(JitteredBackoff(policy, 9, rng), microseconds{800});
}

TEST(JitteredBackoffTest, JitterStaysWithinTheStepBand) {
  BackoffPolicy policy;
  policy.base = microseconds{1000};
  policy.cap = microseconds{1000000};
  policy.jitter = 0.5;
  Rng rng(7);
  for (size_t attempt = 0; attempt < 6; ++attempt) {
    const auto step = microseconds{1000 << attempt};
    for (int draw = 0; draw < 20; ++draw) {
      const microseconds delay = JitteredBackoff(policy, attempt, rng);
      EXPECT_GE(delay, step / 2) << "attempt " << attempt;
      EXPECT_LE(delay, step) << "attempt " << attempt;
    }
  }
}

TEST(JitteredBackoffTest, SameSeedReplaysTheSameSleepSequence) {
  BackoffPolicy policy;
  Rng a(42);
  Rng b(42);
  Rng c(43);
  bool any_different = false;
  for (size_t attempt = 0; attempt < 10; ++attempt) {
    const microseconds da = JitteredBackoff(policy, attempt, a);
    const microseconds db = JitteredBackoff(policy, attempt, b);
    const microseconds dc = JitteredBackoff(policy, attempt, c);
    EXPECT_EQ(da, db) << "attempt " << attempt;
    if (dc != da) any_different = true;
  }
  EXPECT_TRUE(any_different) << "distinct seeds produced identical jitter";
}

// --- ShardFaultInjector -----------------------------------------------------

TEST(ShardFaultInjectorTest, UnarmedAdmitsEverythingLockFree) {
  ShardFaultInjector faults(4);
  EXPECT_FALSE(faults.any_armed());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(faults.Admit(s, nullptr).ok());
    EXPECT_EQ(faults.outage(s), ShardOutage::kNone);
  }
  EXPECT_EQ(faults.outages_armed(), 0u);
}

TEST(ShardFaultInjectorTest, CrashFailsFastAndReviveRestores) {
  Metrics metrics;
  ShardFaultInjector faults(4, {}, &metrics);
  faults.Crash(1);
  EXPECT_TRUE(faults.any_armed());
  EXPECT_EQ(faults.outage(1), ShardOutage::kCrash);
  const Status status = faults.Admit(1, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIoError());
  EXPECT_NE(status.ToString().find("shard 1 crashed"), std::string::npos)
      << status.ToString();
  // Healthy shards are untouched.
  EXPECT_TRUE(faults.Admit(0, nullptr).ok());
  faults.Revive(1);
  EXPECT_FALSE(faults.any_armed());
  EXPECT_TRUE(faults.Admit(1, nullptr).ok());
  EXPECT_EQ(metrics.Get(kMetricShardCrashRejects), 1);
  EXPECT_EQ(metrics.Get(kMetricShardOutagesArmed), 1);
}

TEST(ShardFaultInjectorTest, BrownoutErrorRateOneAlwaysErrors) {
  BrownoutOptions brownout;
  brownout.error_rate = 1.0;
  ShardFaultInjector faults(2);
  faults.Brownout(0, brownout);
  for (int i = 0; i < 10; ++i) {
    const Status status = faults.Admit(0, nullptr);
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(status.IsIoError());
    EXPECT_NE(status.ToString().find("brownout"), std::string::npos);
  }
  EXPECT_TRUE(faults.Admit(1, nullptr).ok());
}

TEST(ShardFaultInjectorTest, BrownoutZeroRatesPassThrough) {
  ShardFaultInjector faults(1);
  faults.Brownout(0, BrownoutOptions{});
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(faults.Admit(0, nullptr).ok());
}

TEST(ShardFaultInjectorTest, BrownoutLatencyDelaysAdmission) {
  BrownoutOptions brownout;
  brownout.latency_rate = 1.0;
  brownout.latency = milliseconds{5};
  ShardFaultInjector faults(1);
  faults.Brownout(0, brownout);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(faults.Admit(0, nullptr).ok());
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds{5});
}

TEST(ShardFaultInjectorTest, HangRespectsCallerDeadline) {
  ShardFaultInjector faults(1);
  faults.Hang(0);
  const QueryControl control = QueryControl::WithDeadline(milliseconds{40});
  const auto start = std::chrono::steady_clock::now();
  const Status status = faults.Admit(0, &control);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsTimeout()) << status.ToString();
  EXPECT_GE(waited, milliseconds{30});
  EXPECT_LT(waited, milliseconds{4000});
}

TEST(ShardFaultInjectorTest, HangReleasedByReviveAdmits) {
  ShardFaultInjector faults(1);
  faults.Hang(0);
  std::thread reviver([&] {
    std::this_thread::sleep_for(milliseconds{20});
    faults.Revive(0);
  });
  // No deadline: the admit blocks until the revive lands, then passes.
  const Status status = faults.Admit(0, nullptr);
  reviver.join();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ShardFaultInjectorTest, TraceHashReplaysDeterministically) {
  const auto script = [](ShardFaultInjector& faults, size_t extra_admits) {
    faults.Crash(1);
    for (int i = 0; i < 3; ++i) (void)faults.Admit(1, nullptr);
    faults.Revive(1);
    BrownoutOptions brownout;
    brownout.error_rate = 0.5;
    faults.Brownout(2, brownout);
    for (int i = 0; i < 8; ++i) (void)faults.Admit(2, nullptr);
    for (size_t i = 0; i < extra_admits; ++i) (void)faults.Admit(2, nullptr);
  };
  ShardFaultOptions options;
  options.seed = 99;
  ShardFaultInjector a(4, options);
  ShardFaultInjector b(4, options);
  script(a, 0);
  script(b, 0);
  EXPECT_EQ(a.TraceHash(), b.TraceHash());
  ShardFaultInjector c(4, options);
  script(c, 2);
  EXPECT_NE(a.TraceHash(), c.TraceHash())
      << "different decision sequences must not collide";
  // A different seed flips brownout draws, so the chain diverges too.
  ShardFaultOptions reseeded;
  reseeded.seed = 100;
  ShardFaultInjector d(4, reseeded);
  script(d, 0);
  EXPECT_NE(a.TraceHash(), d.TraceHash());
}

// --- ShardHealthTracker -----------------------------------------------------

CircuitBreakerOptions FastProbeOptions() {
  CircuitBreakerOptions options;
  options.probe_backoff.base = microseconds{1000};
  options.probe_backoff.cap = microseconds{4000};
  options.probe_backoff.jitter = 0.0;
  return options;
}

TEST(ShardHealthTrackerTest, StartsClosedAndAllows) {
  ShardHealthTracker health(3);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(health.state(s), BreakerState::kClosed);
    EXPECT_EQ(health.AdmitRequest(s), ShardHealthTracker::Admit::kAllow);
    EXPECT_EQ(health.state(s), BreakerState::kClosed);
  }
}

TEST(ShardHealthTrackerTest, ConsecutiveFailuresTripTheBreaker) {
  Metrics metrics;
  ShardHealthTracker health(2, FastProbeOptions(), &metrics);
  for (int i = 0; i < 4; ++i) health.RecordFailure(0, milliseconds{1});
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  health.RecordFailure(0, milliseconds{1});
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  EXPECT_EQ(metrics.Get(kMetricShardBreakerOpened), 1);
  // The other shard's window is independent.
  EXPECT_EQ(health.state(1), BreakerState::kClosed);
  const ShardHealthSnapshot snap = health.snapshot(0);
  EXPECT_EQ(snap.times_opened, 1u);
  EXPECT_GT(snap.probe_delay.count(), 0);
}

TEST(ShardHealthTrackerTest, WindowErrorRateTripsWithoutAStreak) {
  ShardHealthTracker health(1, FastProbeOptions());
  // Alternate ok/fail: consecutive failures never reach 5, but at 8
  // samples the window is 50% failures — at the error threshold.
  for (int i = 0; i < 4; ++i) {
    health.RecordSuccess(0, milliseconds{1});
    health.RecordFailure(0, milliseconds{1});
  }
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
}

TEST(ShardHealthTrackerTest, SuccessfulProbeClosesTheBreaker) {
  Metrics metrics;
  ShardHealthTracker health(1, FastProbeOptions(), &metrics);
  for (int i = 0; i < 5; ++i) health.RecordFailure(0, milliseconds{1});
  ASSERT_EQ(health.state(0), BreakerState::kOpen);
  EXPECT_EQ(health.AdmitRequest(0), ShardHealthTracker::Admit::kFailFast);
  std::this_thread::sleep_for(milliseconds{6});
  EXPECT_EQ(health.AdmitRequest(0), ShardHealthTracker::Admit::kProbe);
  // Only one probe flies at a time.
  EXPECT_EQ(health.AdmitRequest(0), ShardHealthTracker::Admit::kFailFast);
  health.RecordSuccess(0, milliseconds{1});
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.AdmitRequest(0), ShardHealthTracker::Admit::kAllow);
  EXPECT_EQ(metrics.Get(kMetricShardBreakerClosed), 1);
  EXPECT_GE(metrics.Get(kMetricShardBreakerProbes), 1);
  EXPECT_GE(metrics.Get(kMetricShardBreakerFastFails), 2);
}

TEST(ShardHealthTrackerTest, ProbeSuccessForgetsOutageEraOutcomes) {
  CircuitBreakerOptions options = FastProbeOptions();
  options.min_samples = 3;  // eager error-rate trip to expose stale reads
  ShardHealthTracker health(1, options);
  for (int i = 0; i < 5; ++i) health.RecordFailure(0, milliseconds{1});
  ASSERT_EQ(health.state(0), BreakerState::kOpen);
  std::this_thread::sleep_for(milliseconds{6});
  ASSERT_EQ(health.AdmitRequest(0), ShardHealthTracker::Admit::kProbe);
  health.RecordSuccess(0, milliseconds{1});
  ASSERT_EQ(health.state(0), BreakerState::kClosed);
  // The window restarted from the probe's own outcome: no stale
  // outage-era failures are visible to readers.
  ShardHealthSnapshot snap = health.snapshot(0);
  EXPECT_EQ(snap.samples, 1u);
  EXPECT_EQ(snap.failures, 0u);
  // One transient failure among post-recovery successes must not re-trip
  // via the error-rate path reading pre-outage entries.
  health.RecordFailure(0, milliseconds{1});
  health.RecordSuccess(0, milliseconds{1});
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  snap = health.snapshot(0);
  EXPECT_EQ(snap.samples, 3u);
  EXPECT_EQ(snap.failures, 1u);
}

TEST(ShardHealthTrackerTest, FailedProbeReopensWithLongerBackoff) {
  ShardHealthTracker health(1, FastProbeOptions());
  for (int i = 0; i < 5; ++i) health.RecordFailure(0, milliseconds{1});
  const microseconds first_delay = health.snapshot(0).probe_delay;
  std::this_thread::sleep_for(milliseconds{6});
  ASSERT_EQ(health.AdmitRequest(0), ShardHealthTracker::Admit::kProbe);
  health.RecordFailure(0, milliseconds{1});
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  const ShardHealthSnapshot snap = health.snapshot(0);
  EXPECT_EQ(snap.times_opened, 2u);
  // Jitter is zeroed in FastProbeOptions, so the schedule is exact
  // doubling until the cap.
  EXPECT_EQ(snap.probe_delay, first_delay * 2);
}

TEST(ShardHealthTrackerTest, ResetRestoresAFreshClosedWindow) {
  ShardHealthTracker health(1, FastProbeOptions());
  for (int i = 0; i < 5; ++i) health.RecordFailure(0, milliseconds{1});
  ASSERT_EQ(health.state(0), BreakerState::kOpen);
  health.Reset(0);
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  const ShardHealthSnapshot snap = health.snapshot(0);
  EXPECT_EQ(snap.samples, 0u);
  EXPECT_EQ(snap.times_opened, 0u);
  EXPECT_EQ(health.AdmitRequest(0), ShardHealthTracker::Admit::kAllow);
}

TEST(ShardHealthTrackerTest, HedgeDelayFallsBackThenTracksTheQuantile) {
  CircuitBreakerOptions options;
  options.hedge_default = microseconds{5000};
  options.hedge_floor = microseconds{1000};
  options.hedge_min_samples = 8;
  ShardHealthTracker health(1, options);
  // Too few successes: the default applies.
  EXPECT_EQ(health.HedgeDelay(0), microseconds{5000});
  for (int i = 0; i < 12; ++i) {
    health.RecordSuccess(0, microseconds{3000});
  }
  EXPECT_EQ(health.HedgeDelay(0), microseconds{3000});
  // The floor clamps a fast shard so hedges never fire on noise.
  ShardHealthTracker fast(1, options);
  for (int i = 0; i < 12; ++i) fast.RecordSuccess(0, microseconds{10});
  EXPECT_EQ(fast.HedgeDelay(0), microseconds{1000});
}

TEST(ShardHealthTrackerTest, FailureLatenciesStayOutOfTheHedgeQuantile) {
  CircuitBreakerOptions options;
  options.hedge_min_samples = 4;
  options.hedge_floor = microseconds{1};
  options.consecutive_failures = 100;  // keep the breaker closed
  options.error_threshold = 1.1;
  ShardHealthTracker health(1, options);
  for (int i = 0; i < 6; ++i) health.RecordSuccess(0, microseconds{200});
  for (int i = 0; i < 6; ++i) health.RecordFailure(0, microseconds{900000});
  EXPECT_EQ(health.HedgeDelay(0), microseconds{200});
}

}  // namespace
}  // namespace aib
