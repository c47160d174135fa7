#ifndef AIB_PERFBENCH_BENCH_H_
#define AIB_PERFBENCH_BENCH_H_

// Shared pieces of the perfbench binary: arguments, the seeded input
// generators, latency samples, the span tracer, the oracle, and the
// result report. The engine only ever sees the Tuples and Statements built
// here; nothing in this directory uses the engine's own workload
// generators, so a change to those cannot change what is measured.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace perfbench {

using aib::ColumnId;
using aib::Value;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_file;
};

// --- Time -------------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Seeded inputs ----------------------------------------------------------

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// SplitMix64 stream: small, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed)) {}
  uint64_t Next() { return Mix64(state_++); }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over `n` ranks by inverse CDF; rank 0 is the most frequent.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The value domain every workload draws from: the paper's setup of
/// uniform integers in [1, 50000] with partial indexes on [1, 5000].
inline constexpr Value kDomainMax = 50000;
inline constexpr Value kCoveredMax = 5000;
inline constexpr int kIntColumns = 3;
inline constexpr uint16_t kPayloadMax = 512;

/// One generated row: three int columns and a payload length. Row `i` of
/// seed `s` is a pure function of (s, i), so any row can be regenerated
/// without keeping the table in memory.
struct Row {
  Value v[kIntColumns] = {0, 0, 0};
  uint16_t payload = 0;
};

Row MakeRow(uint64_t seed, uint64_t index);

/// Zipf-skewed uncovered values of one column, ranks mapped to values by a
/// seeded permutation (so each seed has its own hot set).
class UncoveredValues {
 public:
  UncoveredValues(uint64_t seed, double skew);
  Value Sample(Rng& rng) const { return values_[zipf_.Sample(rng)]; }

 private:
  std::vector<Value> values_;
  Zipf zipf_;
};

// --- Oracle -----------------------------------------------------------------

/// A rid as one integer: (shard << 48) | (page << 16) | slot.
using RowKey = uint64_t;

inline RowKey KeyOf(uint32_t shard, aib::Rid rid) {
  return (static_cast<uint64_t>(shard) << 48) |
         (static_cast<uint64_t>(rid.page_id) << 16) | rid.slot;
}

/// Order-independent fingerprint of a rid multiset: the count plus two
/// sums of independent 64-bit hashes. Two result sets with equal digests
/// are equal except with probability ~2^-64; a missing, extra or
/// duplicated rid always changes the count or the sums.
struct Digest {
  uint64_t count = 0;
  uint64_t h1 = 0;
  uint64_t h2 = 0;

  void Add(RowKey key) {
    ++count;
    h1 += Mix64(key);
    h2 += Mix64(key ^ 0x5bd1e9955bd1e995ULL);
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// The benchmark's own model of the table: every live row by rid, and per
/// column a value -> rids map, updated through every DML statement. Reads
/// are checked against it; so is every rid a DML statement returns.
class Oracle {
 public:
  void Insert(RowKey key, const Row& row);
  void Remove(RowKey key);
  const Row* Find(RowKey key) const;

  Digest Point(ColumnId column, Value v) const;

  size_t size() const { return order_.size(); }
  /// A live row skewed towards the most recently inserted ones.
  RowKey RecentVictim(Rng& rng) const;

 private:
  struct Live {
    Row row;
    size_t pos = 0;  // index in `order_`
  };

  std::unordered_map<RowKey, Live> rows_;
  std::vector<RowKey> order_;
  std::unordered_map<Value, std::vector<RowKey>> by_value_[kIntColumns];
};

// --- Samples and tracing ----------------------------------------------------

/// Exact percentile (linear interpolation) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Spans recorded in memory around the benchmark's own calls into the
/// engine; written out once, after the run.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t parent;  // -1 for a root
    uint64_t stmt;
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled) spans_.reserve(1 << 18);
  }
  bool enabled() const { return enabled_; }

  int64_t Begin(const char* name, uint64_t stmt, int64_t parent = -1) {
    spans_.push_back(Span{name, parent, stmt, NowNs(), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

  int64_t Duration(int64_t id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end_ns - s.start_ns;
  }
  /// Each span's duration minus the time its children cover.
  std::vector<int64_t> SelfTimes() const;
  /// Median self time, in microseconds, of the spans named `name`.
  double MedianSelfUs(const std::string& name) const;
  /// Writes one tab-separated line per span; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// --- Report -----------------------------------------------------------------

/// One run's outcome: the metrics printed in the final JSON line plus the
/// counts behind `correct`, `attempted` and `failed`.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Mechanism assertions that did not hold (each makes the run incorrect).
  std::vector<std::string> invalid;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Require(bool ok, const std::string& what) {
    if (!ok) invalid.push_back(what);
  }
  bool correct() const { return failed == 0 && invalid.empty(); }
  /// The last line of stdout.
  std::string Json() const;
};

/// Pins the calling thread, and the threads it creates from then on, to
/// the CPU it is running on. Release (or destruction) restores the
/// previous mask for the calling thread and threads it creates afterwards.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin() { Release(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  void Release();

 private:
  cpu_set_t previous_;
  bool pinned_ = false;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Counter deltas between two registry snapshots.
int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              const std::string& name);

// --- Workloads --------------------------------------------------------------

/// Each returns the run's report; an engine call that fails during set-up
/// throws std::runtime_error.
Report RunAdaptPoint(const Args& args);
Report RunMixedDml(const Args& args);

}  // namespace perfbench

#endif  // AIB_PERFBENCH_BENCH_H_
