// Seeded random sequences of Index Buffer tier operations — Table I patches
// through AddTuple/RemoveTuple, indexing (MarkPageIndexed), demotion,
// promotion, both drops, and probes — checked against a one-tree model: per
// partition id, one key-ordered postings list in insertion order with the
// older epoch first. Demotion and promotion only move a partition between
// storage formats, so they never reorder the list; a never-demoted buffer
// would answer every probe with the same rids in the same order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/consistency.h"
#include "core/index_buffer.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace aib {
namespace {

constexpr size_t kPartitionPages = 4;
constexpr size_t kTuples = 160;  // 16 pages of 10: partitions 0..3
constexpr Value kDomain = 40;
constexpr Value kCoveredHi = 9;  // the partial index holds [0, 9]
constexpr int kOpsPerSeed = 60;

/// One entry of the model: `cold` is the tier that holds it now.
struct ModelEntry {
  Value key;
  Rid rid;
  size_t page;
  bool cold;
};

/// The one-tree model of one partition id: `entries` is key-ordered, and
/// within a key the older epoch (cold) precedes the newer (hot), each in
/// insertion order.
struct ModelPartition {
  std::vector<ModelEntry> entries;
  std::set<size_t> hot_pages;
  std::set<size_t> cold_pages;
  bool hot = false;
  bool cold = false;

  void Add(Value key, const Rid& rid, size_t page, bool to_cold) {
    // After every entry of a smaller key, and after the older epoch's
    // entries of this key; a hot entry also goes after the hot ones.
    auto pos = std::find_if(entries.begin(), entries.end(),
                            [&](const ModelEntry& e) {
                              return e.key > key ||
                                     (to_cold && e.key == key && !e.cold);
                            });
    entries.insert(pos, ModelEntry{key, rid, page, to_cold});
  }

  bool Remove(Value key, const Rid& rid) {
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&](const ModelEntry& e) {
                             return e.key == key && e.rid == rid;
                           });
    if (it == entries.end()) return false;
    entries.erase(it);
    return true;
  }

  /// Moves every entry to one tier; the order stands.
  void Retag(bool to_cold) {
    for (ModelEntry& e : entries) e.cold = to_cold;
  }

  /// Entries of one tier on `page`: C[page] after that tier is dropped.
  size_t CountOn(size_t page, bool in_cold) const {
    return static_cast<size_t>(
        std::count_if(entries.begin(), entries.end(),
                      [&](const ModelEntry& e) {
                        return e.page == page && e.cold == in_cold;
                      }));
  }

  void DropTier(bool in_cold) {
    std::erase_if(entries,
                  [&](const ModelEntry& e) { return e.cold == in_cold; });
    (in_cold ? cold_pages : hot_pages).clear();
    (in_cold ? cold : hot) = false;
  }
};

/// Sequences that exercise the sibling paths, summed over all seeds.
struct Coverage {
  size_t hot_siblings = 0;      // pages indexed hot beside a cold run
  size_t cold_patches = 0;      // AddTuple/RemoveTuple on cold pages
  size_t sibling_promotes = 0;  // promotions into a non-empty hot sibling
  size_t sibling_demotes = 0;   // demotions onto an existing cold run
};

class TierFuzz {
 public:
  explicit TierFuzz(uint64_t seed)
      : rng_(seed),
        disk_(8192),
        pool_(&disk_, 64),
        table_("t", Schema::PaperSchema(3, 16), &disk_, &pool_,
               HeapFileOptions{.max_tuples_per_page = 10}) {
    for (size_t i = 0; i < kTuples; ++i) {
      const Value v = static_cast<Value>((i * 7) % kDomain);
      const Result<Rid> rid = table_.Insert(Tuple({v, v, v}, {"p"}));
      EXPECT_TRUE(rid.ok());
      if (v > kCoveredHi) live_.emplace_back(rid.value(), v);
    }
    index_ = std::make_unique<PartialIndex>(
        &table_, 0, ValueCoverage::Range(0, kCoveredHi));
    EXPECT_TRUE(index_->Build().ok());
    IndexBufferOptions options;
    options.partition_pages = kPartitionPages;
    buffer_ = std::make_unique<IndexBuffer>(index_.get(), options, &metrics_);
    EXPECT_TRUE(buffer_->InitCounters().ok());
  }

  void Run(Coverage* coverage) {
    for (int op = 0; op < kOpsPerSeed; ++op) {
      const size_t pick = Pick(100);
      if (pick < 18) {
        Insert(coverage);
      } else if (pick < 32) {
        Delete(coverage);
      } else if (pick < 52) {
        IndexPage(coverage);
      } else if (pick < 62) {
        Demote(coverage);
      } else if (pick < 70) {
        Promote(coverage);
      } else if (pick < 75) {
        Drop(/*cold=*/false);
      } else if (pick < 80) {
        Drop(/*cold=*/true);
      } else if (pick < 90) {
        CheckLookup(RandomValue());
      } else {
        const Value lo = RandomValue();
        CheckScan(lo, lo + static_cast<Value>(Pick(12)));
      }
      CheckState();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  /// Uniform in [0, n).
  size_t Pick(size_t n) {
    return static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  Value RandomValue() {
    return static_cast<Value>(Pick(static_cast<size_t>(kDomain)));
  }

  size_t RandomId() {
    return Pick(table_.PageCount() / kPartitionPages + 1);
  }

  size_t PageOf(const Rid& rid) const {
    return table_.PageNumberOf(rid).value();
  }

  ModelPartition& ModelFor(size_t page) {
    return model_[page / kPartitionPages];
  }

  /// The tier covering `page` in the model: 1 hot, 2 cold, 0 none.
  int ModelTier(size_t page) {
    const ModelPartition& m = ModelFor(page);
    if (m.cold_pages.contains(page)) return 2;
    return m.hot_pages.contains(page) ? 1 : 0;
  }

  /// Table I insert of an unindexed tuple.
  void Insert(Coverage* coverage) {
    const Value v = kCoveredHi + 1 +
                    static_cast<Value>(Pick(static_cast<size_t>(kDomain - kCoveredHi - 1)));
    const Result<Rid> rid = table_.Insert(Tuple({v, v, v}, {"p"}));
    ASSERT_TRUE(rid.ok());
    live_.emplace_back(rid.value(), v);
    const size_t page = PageOf(rid.value());
    const int tier = ModelTier(page);
    ASSERT_EQ(buffer_->PageInBuffer(page), tier != 0);
    if (tier == 0) {
      buffer_->counters().EnsureSize(page + 1);
      buffer_->counters().Increment(page);
      return;
    }
    buffer_->AddTuple(page, v, rid.value());
    ModelFor(page).Add(v, rid.value(), page, tier == 2);
    if (tier == 2) ++coverage->cold_patches;
  }

  /// Table I delete of an unindexed tuple.
  void Delete(Coverage* coverage) {
    if (live_.empty()) return;
    const size_t at = Pick(live_.size());
    const auto [rid, v] = live_[at];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(at));
    const size_t page = PageOf(rid);
    ASSERT_TRUE(table_.Delete(rid).ok());
    const int tier = ModelTier(page);
    ASSERT_EQ(buffer_->PageInBuffer(page), tier != 0);
    if (tier == 0) {
      buffer_->counters().Decrement(page);
      return;
    }
    ASSERT_TRUE(buffer_->RemoveTuple(page, v, rid));
    ASSERT_TRUE(ModelFor(page).Remove(v, rid));
    if (tier == 2) ++coverage->cold_patches;
  }

  /// Algorithm 1 on one uncovered page: index its unindexed tuples, then
  /// MarkPageIndexed.
  void IndexPage(Coverage* coverage) {
    std::vector<size_t> uncovered;
    for (size_t page = 0; page < table_.PageCount(); ++page) {
      if (ModelTier(page) == 0) uncovered.push_back(page);
    }
    if (uncovered.empty()) return;
    const size_t page = uncovered[Pick(uncovered.size())];
    ModelPartition& m = ModelFor(page);
    if (m.cold) ++coverage->hot_siblings;
    ASSERT_TRUE(table_.heap()
                    .ForEachTupleOnPage(
                        page,
                        [&](const Rid& rid, const Tuple& tuple) {
                          const Value v = tuple.IntValue(table_.schema(), 0);
                          if (v <= kCoveredHi) return;
                          buffer_->AddTuple(page, v, rid);
                          m.Add(v, rid, page, /*to_cold=*/false);
                        })
                    .ok());
    buffer_->MarkPageIndexed(page);
    m.hot_pages.insert(page);
    m.hot = true;
  }

  void Demote(Coverage* coverage) {
    const size_t id = RandomId();
    ModelPartition& m = model_[id];
    const size_t hot_entries = static_cast<size_t>(std::count_if(
        m.entries.begin(), m.entries.end(),
        [](const ModelEntry& e) { return !e.cold; }));
    ASSERT_EQ(buffer_->DemotePartition(id), m.hot ? hot_entries : 0);
    if (!m.hot) return;
    if (m.cold) ++coverage->sibling_demotes;
    m.Retag(/*to_cold=*/true);
    m.cold_pages.insert(m.hot_pages.begin(), m.hot_pages.end());
    m.hot_pages.clear();
    m.hot = false;
    m.cold = true;
  }

  void Promote(Coverage* coverage) {
    const size_t id = RandomId();
    ModelPartition& m = model_[id];
    ASSERT_EQ(buffer_->PromotePartition(id).ok(), m.cold);
    if (!m.cold) return;
    if (std::any_of(m.entries.begin(), m.entries.end(),
                    [](const ModelEntry& e) { return !e.cold; })) {
      ++coverage->sibling_promotes;
    }
    m.Retag(/*to_cold=*/false);
    m.hot_pages.insert(m.cold_pages.begin(), m.cold_pages.end());
    m.cold_pages.clear();
    m.cold = false;
    m.hot = true;
  }

  void Drop(bool cold) {
    const size_t id = RandomId();
    ModelPartition& m = model_[id];
    const std::set<size_t> pages = cold ? m.cold_pages : m.hot_pages;
    std::map<size_t, size_t> expected_counters;
    size_t expected_entries = 0;
    for (size_t page : pages) {
      expected_counters[page] = m.CountOn(page, cold);
      expected_entries += expected_counters[page];
    }
    const size_t freed =
        cold ? buffer_->DropColdRun(id) : buffer_->DropPartition(id);
    EXPECT_EQ(freed, expected_entries);
    m.DropTier(cold);
    for (const auto& [page, count] : expected_counters) {
      EXPECT_EQ(buffer_->counters().Get(page), count) << "page " << page;
    }
  }

  void CheckLookup(Value v) {
    std::vector<Rid> expected;
    for (const auto& [id, m] : model_) {
      for (const ModelEntry& e : m.entries) {
        if (e.key == v) expected.push_back(e.rid);
      }
    }
    std::vector<Rid> got;
    buffer_->Lookup(v, &got);
    EXPECT_EQ(got, expected) << "Lookup(" << v << ")";
  }

  void CheckScan(Value lo, Value hi) {
    std::vector<std::pair<Value, Rid>> expected;
    for (const auto& [id, m] : model_) {
      for (const ModelEntry& e : m.entries) {
        if (e.key >= lo && e.key <= hi) expected.emplace_back(e.key, e.rid);
      }
    }
    std::vector<std::pair<Value, Rid>> got;
    buffer_->Scan(lo, hi,
                  [&](Value v, const Rid& rid) { got.emplace_back(v, rid); });
    EXPECT_EQ(got, expected) << "Scan(" << lo << ", " << hi << ")";
  }

  void CheckState() {
    // Every posting, so an order broken by a tier move shows at once.
    CheckScan(0, kDomain - 1);
    size_t hot_entries = 0;
    size_t cold_entries = 0;
    size_t hot_partitions = 0;
    size_t cold_partitions = 0;
    for (const auto& [id, m] : model_) {
      for (const ModelEntry& e : m.entries) {
        ++(e.cold ? cold_entries : hot_entries);
      }
      hot_partitions += m.hot ? 1 : 0;
      cold_partitions += m.cold ? 1 : 0;
    }
    EXPECT_EQ(buffer_->TotalEntries(), hot_entries);
    EXPECT_EQ(buffer_->ColdEntries(), cold_entries);
    EXPECT_EQ(buffer_->PartitionCount(), hot_partitions);
    EXPECT_EQ(buffer_->ColdPartitionCount(), cold_partitions);
    EXPECT_EQ(metrics_.Get(kMetricColdBytes),
              static_cast<int64_t>(buffer_->ColdBytes()));
    const Status status = CheckBufferConsistency(table_, *buffer_);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  Rng rng_;
  Metrics metrics_;
  DiskManager disk_;
  BufferPool pool_;
  Table table_;
  std::unique_ptr<PartialIndex> index_;
  std::unique_ptr<IndexBuffer> buffer_;
  /// Live unindexed tuples (value > kCoveredHi): the delete candidates.
  std::vector<std::pair<Rid, Value>> live_;
  std::map<size_t, ModelPartition> model_;
};

TEST(IndexBufferTierFuzzTest, RandomTierOpsMatchOneTreeModel) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    TierFuzz(seed).Run(&coverage);
    if (::testing::Test::HasFailure()) return;
  }
  // The sequences reached every sibling path.
  EXPECT_GT(coverage.hot_siblings, 0u);
  EXPECT_GT(coverage.cold_patches, 0u);
  EXPECT_GT(coverage.sibling_promotes, 0u);
  EXPECT_GT(coverage.sibling_demotes, 0u);
}

}  // namespace
}  // namespace aib
