#include "common/partition_latch.h"

#include <algorithm>
#include <bit>
#include <chrono>

namespace aib {

namespace {

/// Locks `mu` in `Mode`, accounting the wait if the fast path misses.
/// Returns the blocked microseconds (0 on the fast path).
template <typename Lock, typename Mutex>
Lock LockTimed(Mutex& mu, std::atomic<int64_t>* waits, Metrics* metrics) {
  Lock lock(mu, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  const auto start = std::chrono::steady_clock::now();
  lock = Lock(mu);
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  if (waits != nullptr) waits->fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->Observe(kMetricLatchWaitMicros,
                     static_cast<double>(waited.count()));
  }
  return lock;
}

}  // namespace

PartitionLatchTable::PartitionLatchTable(Metrics* metrics, size_t stripes)
    : metrics_(metrics) {
  stripes = std::clamp<size_t>(stripes, 1, 64);
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<std::shared_mutex>());
  }
  if (metrics_ != nullptr) {
    shared_acquires_ = metrics_->Counter(kMetricLatchSharedAcquires);
    exclusive_acquires_ = metrics_->Counter(kMetricLatchExclusiveAcquires);
    waits_ = metrics_->Counter(kMetricLatchWaits);
  }
}

PartitionLatchTable::LatchSet PartitionLatchTable::AcquireStripes(
    StripeMask stripes, bool exclusive) {
  LatchSet set;
  set.table_ = this;
  set.held_ = stripes;
  set.exclusive_ = exclusive;
  // Ascending stripe order: lowest set bit first.
  for (StripeMask rest = stripes; rest != 0; rest &= rest - 1) {
    std::shared_mutex& mu = *stripes_[std::countr_zero(rest)];
    if (exclusive) {
      LockTimed<std::unique_lock<std::shared_mutex>>(mu, waits_, metrics_)
          .release();  // ownership tracked by the LatchSet
    } else {
      LockTimed<std::shared_lock<std::shared_mutex>>(mu, waits_, metrics_)
          .release();
    }
  }
  std::atomic<int64_t>* counter =
      exclusive ? exclusive_acquires_ : shared_acquires_;
  if (counter != nullptr && stripes != 0) {
    counter->fetch_add(std::popcount(stripes), std::memory_order_relaxed);
  }
  return set;
}

PartitionLatchTable::LatchSet PartitionLatchTable::AcquireAllShared() {
  return AcquireStripes(~StripeMask{0} >> (64 - stripes_.size()),
                        /*exclusive=*/false);
}

PartitionLatchTable::LatchSet PartitionLatchTable::AcquireExclusive(
    const std::vector<size_t>& keys) {
  StripeMask stripes = 0;
  for (size_t key : keys) stripes |= MaskOf(key);
  return AcquireStripes(stripes, /*exclusive=*/true);
}

void PartitionLatchTable::LatchSet::Release() {
  if (table_ == nullptr) return;
  // Release order does not matter for deadlock freedom; ascending is
  // cheapest to walk.
  for (; held_ != 0; held_ &= held_ - 1) {
    std::shared_mutex& mu = *table_->stripes_[std::countr_zero(held_)];
    exclusive_ ? mu.unlock() : mu.unlock_shared();
  }
  table_ = nullptr;
}

std::unique_lock<std::shared_mutex> PartitionLatchTable::AcquireExclusiveTimed(
    std::shared_mutex& mu) const {
  auto lock =
      LockTimed<std::unique_lock<std::shared_mutex>>(mu, waits_, metrics_);
  if (exclusive_acquires_ != nullptr) {
    exclusive_acquires_->fetch_add(1, std::memory_order_relaxed);
  }
  return lock;
}

std::shared_lock<std::shared_mutex> PartitionLatchTable::AcquireSharedTimed(
    std::shared_mutex& mu) const {
  auto lock =
      LockTimed<std::shared_lock<std::shared_mutex>>(mu, waits_, metrics_);
  if (shared_acquires_ != nullptr) {
    shared_acquires_->fetch_add(1, std::memory_order_relaxed);
  }
  return lock;
}

void RecordOptimisticRetry(Metrics* metrics) {
  if (metrics != nullptr) metrics->Increment(kMetricLatchOptimisticRetries);
}

void RecordOptimisticFallback(Metrics* metrics) {
  if (metrics != nullptr) {
    metrics->Increment(kMetricLatchOptimisticFallbacks);
  }
}

}  // namespace aib
