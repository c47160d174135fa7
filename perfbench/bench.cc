#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

Row MakeRow(uint64_t seed, uint64_t index) {
  Rng rng(Mix64(seed) ^ (index * 0x9e3779b97f4a7c15ULL));
  Row row;
  for (Value& v : row.v) v = static_cast<Value>(rng.Uniform(1, kDomainMax));
  row.payload = static_cast<uint16_t>(rng.Uniform(1, kPayloadMax));
  return row;
}

UncoveredValues::UncoveredValues(uint64_t seed, double skew)
    : zipf_(static_cast<size_t>(kDomainMax - kCoveredMax), skew) {
  values_.reserve(static_cast<size_t>(kDomainMax - kCoveredMax));
  for (Value v = kCoveredMax + 1; v <= kDomainMax; ++v) values_.push_back(v);
  Rng rng(seed);
  for (size_t i = values_.size() - 1; i > 0; --i) {
    std::swap(values_[i], values_[static_cast<size_t>(
                              rng.Uniform(0, static_cast<int64_t>(i)))]);
  }
}

// --- Oracle -----------------------------------------------------------------

void Oracle::Insert(RowKey key, const Row& row) {
  rows_[key] = Live{row, order_.size()};
  order_.push_back(key);
  for (int c = 0; c < kIntColumns; ++c) by_value_[c][row.v[c]].push_back(key);
}

void Oracle::Remove(RowKey key) {
  const auto it = rows_.find(key);
  if (it == rows_.end()) return;
  const Live live = it->second;
  rows_.erase(it);
  // Swap-remove keeps removal O(1); the recency order stays approximate,
  // which is all RecentVictim needs.
  const RowKey moved = order_.back();
  order_[live.pos] = moved;
  order_.pop_back();
  if (moved != key) rows_[moved].pos = live.pos;
  for (int c = 0; c < kIntColumns; ++c) {
    std::vector<RowKey>& keys = by_value_[c][live.row.v[c]];
    keys.erase(std::find(keys.begin(), keys.end(), key));
  }
}

const Row* Oracle::Find(RowKey key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second.row;
}

Digest Oracle::Point(ColumnId column, Value v) const {
  Digest d;
  const auto it = by_value_[column].find(v);
  if (it != by_value_[column].end()) {
    for (RowKey key : it->second) d.Add(key);
  }
  return d;
}

RowKey Oracle::RecentVictim(Rng& rng) const {
  // Offset from the newest row ~ n * u^3: most victims are recent rows,
  // a few reach deep into the table.
  const double u = rng.Unit();
  const size_t offset =
      static_cast<size_t>(static_cast<double>(order_.size()) * u * u * u);
  return order_[order_.size() - 1 - std::min(offset, order_.size() - 1)];
}

// --- Samples and tracing ----------------------------------------------------

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) *
                           (pos - static_cast<double>(lo));
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one span run one after another, never overlapping, so the
  // time they cover is the sum of their durations.
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

double Tracer::MedianSelfUs(const std::string& name) const {
  const std::vector<int64_t> self = SelfTimes();
  std::vector<double> us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      us.push_back(static_cast<double>(self[i]) / 1e3);
    }
  }
  return Median(std::move(us));
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<int64_t> self = SelfTimes();
  out << "id\tparent\tstmt\tname\tstart_ns\tend_ns\tself_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.stmt << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

// --- Report -----------------------------------------------------------------

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].second.first)
                         ? metrics[i].second.first
                         : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

CpuPin::CpuPin() {
  CPU_ZERO(&previous_);
  if (sched_getaffinity(0, sizeof(previous_), &previous_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(std::max(0, sched_getcpu()), &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  pinned_ = true;
}

void CpuPin::Release() {
  if (pinned_) sched_setaffinity(0, sizeof(previous_), &previous_);
  pinned_ = false;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

}  // namespace perfbench
