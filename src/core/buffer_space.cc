#include "core/buffer_space.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <mutex>

namespace aib {

namespace {
constexpr double kMinBenefit = 1e-9;
}  // namespace

bool IndexBufferSpace::OrderByColumn::operator()(
    const PartialIndex* a, const PartialIndex* b) const {
  if (a->column() != b->column()) return a->column() < b->column();
  return a < b;
}

IndexBufferSpace::IndexBufferSpace(BufferSpaceOptions options,
                                   Metrics* metrics)
    : options_(options),
      metrics_(metrics),
      rng_(options.seed),
      degradation_(metrics) {}

Result<IndexBuffer*> IndexBufferSpace::CreateBuffer(
    const PartialIndex* index, IndexBufferOptions buffer_options,
    std::optional<std::vector<uint32_t>> counters) {
  {
    std::shared_lock lock(buffers_mu_);
    auto it = buffers_.find(index);
    if (it != buffers_.end()) return it->second.get();
  }
  auto buffer = std::make_unique<IndexBuffer>(index, buffer_options, metrics_);
  if (counters.has_value()) {
    buffer->counters().Reset(std::move(*counters));
  } else {
    AIB_RETURN_IF_ERROR(buffer->InitCounters());
  }
  std::unique_lock lock(buffers_mu_);
  auto [it, inserted] = buffers_.try_emplace(index, std::move(buffer));
  return it->second.get();
}

IndexBuffer* IndexBufferSpace::GetBuffer(const PartialIndex* index) const {
  std::shared_lock lock(buffers_mu_);
  auto it = buffers_.find(index);
  return it == buffers_.end() ? nullptr : it->second.get();
}

size_t IndexBufferSpace::TotalEntries() const {
  std::shared_lock lock(buffers_mu_);
  size_t total = 0;
  for (const auto& [index, buffer] : buffers_) total += buffer->TotalEntries();
  return total;
}

size_t IndexBufferSpace::FreeEntries() const {
  if (Unlimited()) return std::numeric_limits<size_t>::max();
  const size_t used = TotalEntries();
  return used >= options_.max_entries ? 0 : options_.max_entries - used;
}

void IndexBufferSpace::OnQuery(const PartialIndex* queried_index,
                               bool partial_hit) {
  std::shared_lock lock(buffers_mu_);
  for (const auto& [index, buffer] : buffers_) {
    if (index == queried_index && !partial_hit) {
      buffer->OnBufferUse();
    } else {
      buffer->OnOtherQuery();
    }
  }
}

std::optional<IndexBufferSpace::VictimRef>
IndexBufferSpace::SelectNextPartition(
    IndexBuffer* target,
    const std::set<std::pair<IndexBuffer*, size_t>>& chosen) {
  // Per-buffer snapshots: stable views the weighted draw and the stage-2
  // ranking below can iterate while concurrent DML keeps mutating the live
  // partition maps. Snapshot order (ascending partition id) matches live
  // map order, so the seeded draw stays deterministic.
  struct Candidate {
    IndexBuffer* buffer = nullptr;
    std::vector<IndexBuffer::PartitionStats> stats;
  };
  auto snapshot = [&](IndexBuffer* buffer) {
    Candidate c;
    c.buffer = buffer;
    c.stats = buffer->PartitionSnapshot();
    return c;
  };
  auto has_unchosen = [&](const Candidate& c) {
    for (const auto& stat : c.stats) {
      if (!chosen.contains({c.buffer, stat.id})) return true;
    }
    return false;
  };
  auto total_benefit = [](const Candidate& c) {
    double benefit = 0;
    for (const auto& stat : c.stats) benefit += stat.benefit;
    return benefit;
  };

  // Stage 1: pick the buffer, probability proportional to b_B^{-1} over
  // S \ {target}.
  std::vector<Candidate> candidates;
  std::vector<double> weights;
  {
    std::shared_lock lock(buffers_mu_);
    for (const auto& [index, buffer] : buffers_) {
      if (buffer.get() == target) continue;
      Candidate c = snapshot(buffer.get());
      if (!has_unchosen(c)) continue;
      weights.push_back(1.0 / std::max(total_benefit(c), kMinBenefit));
      candidates.push_back(std::move(c));
    }
  }
  Candidate victim_buffer;
  if (!candidates.empty()) {
    victim_buffer = std::move(candidates[rng_.WeightedIndex(weights)]);
  } else {
    // Fallback: only the receiving buffer has droppable partitions.
    victim_buffer = snapshot(target);
    if (!has_unchosen(victim_buffer)) return std::nullopt;
  }

  // Stage 2: incomplete partition (X_p < P) first — it has the lowest
  // benefit; afterwards complete partitions in descending size n_p.
  const size_t partition_capacity =
      victim_buffer.buffer->options().partition_pages;
  const IndexBuffer::PartitionStats* best_incomplete = nullptr;
  const IndexBuffer::PartitionStats* best_complete = nullptr;
  for (const auto& stat : victim_buffer.stats) {
    if (chosen.contains({victim_buffer.buffer, stat.id})) continue;
    if (stat.covered_pages < partition_capacity) {
      if (best_incomplete == nullptr ||
          stat.covered_pages < best_incomplete->covered_pages) {
        best_incomplete = &stat;
      }
    } else if (best_complete == nullptr ||
               stat.entries > best_complete->entries) {
      best_complete = &stat;
    }
  }
  const IndexBuffer::PartitionStats* victim =
      best_incomplete != nullptr ? best_incomplete : best_complete;
  assert(victim != nullptr);

  VictimRef ref;
  ref.buffer = victim_buffer.buffer;
  ref.partition_id = victim->id;
  ref.benefit = victim->benefit;
  ref.entries = victim->entries;
  return ref;
}

PageSelection IndexBufferSpace::SelectPagesForBuffer(IndexBuffer* target) {
  PageSelection result;

  // Candidate pages: C[p] > 0, ascending by counter — cheap pages (few
  // missing entries per skippable page) first.
  const PageCounters& counters = target->counters();
  const PartialIndex* target_index = &target->partial_index();
  std::vector<std::pair<uint32_t, size_t>> candidates;
  const size_t counter_pages = counters.size();
  for (size_t page = 0; page < counter_pages; ++page) {
    const uint32_t c = counters.Get(page);
    if (c == 0) continue;
    // Quarantined pages are never re-indexed while the quarantine holds;
    // the scan still visits them (C[p] > 0), it just won't buffer them.
    if (degradation_.IsQuarantined(target_index, page)) continue;
    candidates.emplace_back(c, page);
  }
  switch (options_.selection_policy) {
    case PageSelectionPolicy::kCounterAscending:
      std::stable_sort(
          candidates.begin(), candidates.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      break;
    case PageSelectionPolicy::kCounterDescending:
      std::stable_sort(
          candidates.begin(), candidates.end(),
          [](const auto& a, const auto& b) { return a.first > b.first; });
      break;
    case PageSelectionPolicy::kRandom:
      rng_.Shuffle(candidates);
      break;
  }

  // Greedy prefix of `candidates` fitting `allowance` entries and I_MAX
  // (0 = no cap).
  const size_t max_pages = options_.max_pages_per_scan == 0
                               ? std::numeric_limits<size_t>::max()
                               : options_.max_pages_per_scan;
  auto select = [&](size_t allowance) {
    std::pair<std::vector<size_t>, size_t> selection;  // pages, n_I
    for (const auto& [c, page] : candidates) {
      if (selection.first.size() >= max_pages) break;
      if (selection.second + c > allowance) break;
      selection.first.push_back(page);
      selection.second += c;
    }
    return selection;
  };

  if (Unlimited()) {
    auto [pages, entries] =
        select(std::numeric_limits<size_t>::max());
    result.pages = std::move(pages);
    result.expected_entries = entries;
    return result;
  }

  const size_t free_entries = FreeEntries();
  const double t_target = target->MeanInterval();

  // Algorithm 2 loop: grow the candidate drop set D' one partition at a
  // time while the selection I' it enables is more beneficial than
  // everything D' discards. The profitability test is applied to the
  // *cumulative* drop set, not to each victim in isolation — a single tiny
  // partition may not unlock a whole page even though the next victim
  // would, so the probe continues a bounded number of steps past an
  // unprofitable prefix and commits the best profitable prefix found.
  std::set<std::pair<IndexBuffer*, size_t>> chosen;  // D'
  std::vector<VictimRef> victims;
  size_t tentative_allowance = 0;
  double tentative_benefit = 0;

  auto [pages, entries] = select(free_entries);
  size_t committed_victims = 0;  // best profitable prefix of `victims`
  auto committed = std::make_pair(pages, entries);

  // Maximal possible selection, used to stop probing once I cannot grow.
  const auto max_selection = select(std::numeric_limits<size_t>::max());
  constexpr size_t kMaxUnprofitableStreak = 8;

  while (committed.first.size() < max_selection.first.size() &&
         victims.size() - committed_victims < kMaxUnprofitableStreak) {
    std::optional<VictimRef> victim = SelectNextPartition(target, chosen);
    if (!victim.has_value()) break;
    chosen.insert({victim->buffer, victim->partition_id});
    victims.push_back(*victim);
    tentative_allowance += victim->entries;
    tentative_benefit += victim->benefit;

    auto extended = select(free_entries + tentative_allowance);
    const double new_benefit =
        static_cast<double>(extended.first.size()) / t_target;
    if (new_benefit > tentative_benefit) {
      committed_victims = victims.size();
      committed = std::move(extended);
    }
  }

  // DropPartitions(D): only the best profitable prefix. Victim buffers
  // other than `target` get their scan sentinel taken exclusively first
  // (ascending column order, matching every other sentinel acquisition),
  // which excludes in-flight DML maintaining them — the caller already
  // holds `target`'s sentinel. DML itself can never hold a sentinel while
  // the caller holds every heap page stripe shared, so this wait is only
  // ever on statements that are fully latched and terminate.
  std::vector<IndexBuffer*> victim_buffers;
  for (size_t i = 0; i < committed_victims; ++i) {
    IndexBuffer* buffer = victims[i].buffer;
    if (buffer == target) continue;
    if (std::find(victim_buffers.begin(), victim_buffers.end(), buffer) ==
        victim_buffers.end()) {
      victim_buffers.push_back(buffer);
    }
  }
  std::sort(victim_buffers.begin(), victim_buffers.end(),
            [](const IndexBuffer* a, const IndexBuffer* b) {
              if (a->column() != b->column()) return a->column() < b->column();
              return a < b;
            });
  // Counted like every standalone latch, in the table's latch counters.
  const PartitionLatchTable& latches =
      target->partial_index().table().page_latches();
  std::vector<std::unique_lock<std::shared_mutex>> sentinels;
  sentinels.reserve(victim_buffers.size());
  for (IndexBuffer* buffer : victim_buffers) {
    sentinels.push_back(latches.AcquireExclusiveTimed(buffer->scan_latch()));
  }
  for (size_t i = 0; i < committed_victims; ++i) {
    if (options_.eviction_mode == EvictionMode::kDemote) {
      result.entries_demoted +=
          victims[i].buffer->DemotePartition(victims[i].partition_id);
      ++result.partitions_demoted;
    } else {
      result.entries_dropped +=
          victims[i].buffer->DropPartition(victims[i].partition_id);
      ++result.partitions_dropped;
    }
  }

  result.pages = std::move(committed.first);
  result.expected_entries = committed.second;
  return result;
}

PromotionResult IndexBufferSpace::PromoteForQuery(IndexBuffer* target,
                                                  Value lo, Value hi) {
  PromotionResult result;
  if (options_.eviction_mode != EvictionMode::kDemote) return result;
  for (const IndexBuffer::PartitionStats& cold : target->ColdSnapshot()) {
    if (cold.entries == 0) continue;
    if (cold.min_key > hi || cold.max_key < lo) continue;
    // A promotion re-charges the hot budget; stop before overrunning it —
    // the partition keeps answering from the cold tier instead.
    if (!Unlimited() && FreeEntries() < cold.entries) break;
    if (target->PromotePartition(cold.id).ok()) {
      ++result.partitions;
      result.entries += cold.entries;
    }
  }
  return result;
}

size_t IndexBufferSpace::ColdBytes() const {
  std::shared_lock lock(buffers_mu_);
  size_t bytes = 0;
  for (const auto& [index, buffer] : buffers_) bytes += buffer->ColdBytes();
  return bytes;
}

size_t IndexBufferSpace::ColdEntries() const {
  std::shared_lock lock(buffers_mu_);
  size_t entries = 0;
  for (const auto& [index, buffer] : buffers_) {
    entries += buffer->ColdEntries();
  }
  return entries;
}

size_t IndexBufferSpace::ColdPartitionCount() const {
  std::shared_lock lock(buffers_mu_);
  size_t count = 0;
  for (const auto& [index, buffer] : buffers_) {
    count += buffer->ColdPartitionCount();
  }
  return count;
}

}  // namespace aib
