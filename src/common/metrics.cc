#include "common/metrics.h"

#include <sstream>

namespace aib {

std::atomic<int64_t>* Metrics::FindOrCreate(std::string_view name) {
  Shard& shard = ShardFor(name);
  {
    std::shared_lock lock(shard.mu);
    if (auto it = shard.counters.find(name); it != shard.counters.end()) {
      return it->second.get();
    }
  }
  std::unique_lock lock(shard.mu);
  auto [it, inserted] = shard.counters.try_emplace(std::string(name));
  if (inserted) it->second = std::make_unique<std::atomic<int64_t>>(0);
  return it->second.get();
}

std::map<std::string, int64_t> Metrics::counters() const {
  std::map<std::string, int64_t> merged;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [name, value] : shard.counters) {
      merged[name] = value->load(std::memory_order_relaxed);
    }
  }
  return merged;
}

void Metrics::Observe(const std::string& name, double value) {
  std::lock_guard lock(histograms_mu_);
  histograms_[name].Add(value);
}

Histogram Metrics::HistogramCopy(const std::string& name) const {
  std::lock_guard lock(histograms_mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

std::map<std::string, Histogram> Metrics::histograms() const {
  std::lock_guard lock(histograms_mu_);
  return histograms_;
}

void Metrics::MergeFrom(const Metrics& other) {
  for (const Shard& shard : other.shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [name, value] : shard.counters) {
      const int64_t delta = value->load(std::memory_order_relaxed);
      if (delta != 0) Increment(name, delta);
    }
  }
  const std::map<std::string, Histogram> theirs = other.histograms();
  std::lock_guard lock(histograms_mu_);
  for (const auto& [name, histogram] : theirs) {
    histograms_[name].MergeFrom(histogram);
  }
}

std::string Metrics::ToString() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters()) {
    out << name << "=" << value << "\n";
  }
  return out.str();
}

}  // namespace aib
