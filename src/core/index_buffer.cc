#include "core/index_buffer.h"

#include <cassert>
#include <chrono>
#include <mutex>

#include "btree/cold_run.h"

namespace aib {

IndexBuffer::IndexBuffer(const PartialIndex* index, IndexBufferOptions options,
                         Metrics* metrics)
    : index_(index),
      options_(options),
      metrics_(metrics),
      history_(kIndexBufferLruK, options.initial_interval) {
  assert(options_.partition_pages > 0);
  if (metrics_ != nullptr) {
    entries_added_ = metrics_->Counter(kMetricIbEntriesAdded);
  }
}

Status IndexBuffer::InitCounters() {
  // The (possibly slow, fault-exposed) walk runs without the counters' lock.
  AIB_ASSIGN_OR_RETURN(std::vector<uint32_t> fresh,
                       index_->WalkTable(nullptr));
  counters_.Reset(std::move(fresh));
  return Status::Ok();
}

BufferPartition* IndexBuffer::GetOrCreatePartitionLocked(size_t page) {
  const size_t id = PartitionIdFor(page);
  auto it = partitions_.find(id);
  if (it == partitions_.end()) {
    it = partitions_
             .emplace(id, std::make_unique<BufferPartition>(
                              id, options_.structure))
             .first;
    if (auto hint = reserve_hints_.find(id); hint != reserve_hints_.end()) {
      it->second->Reserve(hint->second);
      reserve_hints_.erase(hint);
    }
  }
  return it->second.get();
}

void IndexBuffer::SetReserveHints(const std::vector<size_t>& selected_pages) {
  std::unique_lock lock(partitions_mu_);
  reserve_hints_.clear();
  for (size_t page : selected_pages) {
    reserve_hints_[PartitionIdFor(page)] += counters_.Get(page);
  }
  for (auto it = reserve_hints_.begin(); it != reserve_hints_.end();) {
    if (auto part = partitions_.find(it->first); part != partitions_.end()) {
      part->second->Reserve(it->second);
      it = reserve_hints_.erase(it);
    } else {
      ++it;
    }
  }
}

BufferPartition* IndexBuffer::CoveringPartitionLocked(const PartitionMap& tier,
                                                      size_t page) const {
  auto it = tier.find(PartitionIdFor(page));
  if (it == tier.end() || !it->second->CoversPage(page)) return nullptr;
  return it->second.get();
}

bool IndexBuffer::PageInBuffer(size_t page) const {
  std::shared_lock lock(partitions_mu_);
  return CoveringPartitionLocked(partitions_, page) != nullptr ||
         CoveringPartitionLocked(cold_, page) != nullptr;
}

void IndexBuffer::AddTuple(size_t page, Value value, const Rid& rid) {
  bool patched_cold = false;
  {
    std::unique_lock lock(partitions_mu_);
    // A cold-covered page is patched in place (Table I), so coverage never
    // goes stale; any other page goes to its hot partition.
    if (BufferPartition* cold = CoveringPartitionLocked(cold_, page)) {
      const size_t bytes = cold->ApproxBytes();
      cold->AddEntry(page, value, rid);
      CountColdBytes(static_cast<int64_t>(cold->ApproxBytes()) -
                     static_cast<int64_t>(bytes));
      patched_cold = true;
    } else {
      GetOrCreatePartitionLocked(page)->AddEntry(page, value, rid);
    }
  }
  if (entries_added_ != nullptr) {
    entries_added_->fetch_add(1, std::memory_order_relaxed);
  }
  if (patched_cold && metrics_ != nullptr) {
    metrics_->Increment(kMetricColdEntriesPatched);
  }
}

bool IndexBuffer::RemoveTuple(size_t page, Value value, const Rid& rid) {
  bool removed = false;
  bool patched_cold = false;
  {
    std::unique_lock lock(partitions_mu_);
    BufferPartition* partition = CoveringPartitionLocked(cold_, page);
    patched_cold = partition != nullptr;
    if (!patched_cold) {
      auto it = partitions_.find(PartitionIdFor(page));
      if (it == partitions_.end()) return false;
      partition = it->second.get();
    }
    // A cold run never shrinks its storage on removal: no gauge change.
    removed = partition->RemoveEntry(page, value, rid);
  }
  if (removed && metrics_ != nullptr) {
    metrics_->Increment(kMetricIbEntriesDropped);
    if (patched_cold) metrics_->Increment(kMetricColdEntriesPatched);
  }
  return removed;
}

void IndexBuffer::UpdateTuple(size_t old_page, Value old_value,
                              const Rid& old_rid, size_t new_page,
                              Value new_value, const Rid& new_rid) {
  RemoveTuple(old_page, old_value, old_rid);
  AddTuple(new_page, new_value, new_rid);
}

void IndexBuffer::MarkPageIndexed(size_t page) {
  std::unique_lock lock(partitions_mu_);
  counters_.EnsureSize(page + 1);
  counters_.Set(page, 0);
  GetOrCreatePartitionLocked(page)->CoverPage(page);
}

namespace {

/// One Lookup's or Scan's probe tallies.
struct ProbeTally {
  IndexBuffer::ProbeTierStats* tier;
  int64_t probes = 0;
  int64_t cold_hits = 0;

  /// One probed partition of the `cold` or hot tier, `matches` rids found.
  void Add(bool cold, size_t matches) {
    ++probes;
    if (cold && matches > 0) ++cold_hits;
    if (tier == nullptr) return;
    ++(cold ? tier->cold_partitions : tier->hot_partitions);
    (cold ? tier->cold_matches : tier->hot_matches) += matches;
  }
};

}  // namespace

void IndexBuffer::Lookup(Value value, std::vector<Rid>* out,
                         ProbeTierStats* tier) const {
  std::shared_lock lock(partitions_mu_);
  ProbeTally tally{tier};
  auto hot_it = partitions_.begin();
  auto cold_it = cold_.begin();
  while (hot_it != partitions_.end() || cold_it != cold_.end()) {
    const bool cold =
        cold_it != cold_.end() &&
        (hot_it == partitions_.end() || cold_it->first <= hot_it->first);
    const BufferPartition& partition =
        cold ? *(cold_it++)->second : *(hot_it++)->second;
    const size_t before = out->size();
    partition.Lookup(value, out);
    tally.Add(cold, out->size() - before);
  }
  CountProbes(tally.probes, tally.cold_hits);
}

void IndexBuffer::Scan(Value lo, Value hi,
                       const std::function<void(Value, const Rid&)>& fn,
                       ProbeTierStats* tier) const {
  std::shared_lock lock(partitions_mu_);
  // Merged walk of both tiers in ascending partition id. When one id lives
  // in both tiers (a post-demotion hot sibling), the two key-sorted streams
  // interleave by key with the cold entries first at equal keys — they are
  // the older epoch, so this is exactly the order one never-split partition
  // BTree would emit.
  ProbeTally tally{tier};
  auto hot_it = partitions_.begin();
  auto cold_it = cold_.begin();
  while (hot_it != partitions_.end() || cold_it != cold_.end()) {
    const bool has_cold =
        cold_it != cold_.end() &&
        (hot_it == partitions_.end() || cold_it->first <= hot_it->first);
    const bool has_hot =
        hot_it != partitions_.end() &&
        (cold_it == cold_.end() || hot_it->first <= cold_it->first);
    if (has_cold && has_hot) {
      std::vector<std::pair<Value, Rid>> older;
      std::vector<std::pair<Value, Rid>> newer;
      (cold_it++)->second->Scan(lo, hi, [&](Value v, const Rid& rid) {
        older.emplace_back(v, rid);
      });
      (hot_it++)->second->Scan(lo, hi, [&](Value v, const Rid& rid) {
        newer.emplace_back(v, rid);
      });
      size_t c = 0;
      size_t h = 0;
      while (c < older.size() || h < newer.size()) {
        const bool take_cold =
            c < older.size() &&
            (h == newer.size() || older[c].first <= newer[h].first);
        const auto& entry = take_cold ? older[c++] : newer[h++];
        fn(entry.first, entry.second);
      }
      tally.Add(true, older.size());
      tally.Add(false, newer.size());
      continue;
    }
    const BufferPartition& partition =
        has_cold ? *(cold_it++)->second : *(hot_it++)->second;
    size_t matches = 0;
    partition.Scan(lo, hi, [&](Value v, const Rid& rid) {
      ++matches;
      fn(v, rid);
    });
    tally.Add(has_cold, matches);
  }
  CountProbes(tally.probes, tally.cold_hits);
}

void IndexBuffer::CountProbes(int64_t probes, int64_t cold_hits) const {
  if (metrics_ == nullptr) return;
  if (probes > 0) metrics_->Increment(kMetricIndexProbes, probes);
  if (cold_hits > 0) metrics_->Increment(kMetricColdHits, cold_hits);
}

void IndexBuffer::OnBufferUse() {
  std::lock_guard lock(hist_mu_);
  history_.OnBufferUse();
}

void IndexBuffer::OnOtherQuery() {
  std::lock_guard lock(hist_mu_);
  history_.OnOtherQuery();
}

double IndexBuffer::MeanInterval() const {
  std::lock_guard lock(hist_mu_);
  return history_.MeanInterval();
}

double IndexBuffer::TotalBenefit() const {
  const double mean_interval = MeanInterval();
  std::shared_lock lock(partitions_mu_);
  double benefit = 0;
  for (const auto& [id, partition] : partitions_) {
    benefit += partition->Benefit(mean_interval);
  }
  return benefit;
}

size_t IndexBuffer::TotalEntries() const {
  std::shared_lock lock(partitions_mu_);
  size_t entries = 0;
  for (const auto& [id, partition] : partitions_) {
    entries += partition->EntryCount();
  }
  return entries;
}

size_t IndexBuffer::PartitionCount() const {
  std::shared_lock lock(partitions_mu_);
  return partitions_.size();
}

namespace {

std::vector<IndexBuffer::PartitionStats> Snapshot(
    const IndexBuffer::PartitionMap& tier, double mean_interval) {
  std::vector<IndexBuffer::PartitionStats> stats;
  stats.reserve(tier.size());
  for (const auto& [id, partition] : tier) {
    IndexBuffer::PartitionStats s;
    s.id = id;
    s.entries = partition->EntryCount();
    s.covered_pages = partition->CoveredPageCount();
    if (const ColdRun* run = partition->cold_run(); run == nullptr) {
      s.benefit = partition->Benefit(mean_interval);
    } else if (s.entries > 0) {
      s.min_key = run->MinKey();
      s.max_key = run->MaxKey();
    }
    stats.push_back(s);
  }
  return stats;
}

}  // namespace

std::vector<IndexBuffer::PartitionStats> IndexBuffer::PartitionSnapshot()
    const {
  const double mean_interval = MeanInterval();
  std::shared_lock lock(partitions_mu_);
  return Snapshot(partitions_, mean_interval);
}

std::vector<IndexBuffer::PartitionStats> IndexBuffer::ColdSnapshot() const {
  std::shared_lock lock(partitions_mu_);
  return Snapshot(cold_, 0);
}

void IndexBuffer::CountColdBytes(int64_t delta) const {
  if (metrics_ != nullptr && delta != 0) {
    metrics_->Increment(kMetricColdBytes, delta);
  }
}

size_t IndexBuffer::DropLocked(PartitionMap& tier, size_t partition_id) {
  auto it = tier.find(partition_id);
  if (it == tier.end()) return 0;
  const BufferPartition& partition = *it->second;
  const size_t freed = partition.EntryCount();
  // Every page the partition covered regains its unindexed tuples: C[p]
  // goes back to the number of entries the buffer held for it.
  for (const auto& [page, entry_count] : partition.page_entries()) {
    counters_.EnsureSize(page + 1);
    counters_.Set(page, static_cast<uint32_t>(entry_count));
  }
  if (metrics_ != nullptr) {
    if (partition.cold_run() != nullptr) {
      metrics_->Increment(kMetricColdRunsInvalidated);
      CountColdBytes(-static_cast<int64_t>(partition.ApproxBytes()));
    }
    metrics_->Increment(kMetricIbPartitionsDropped);
    metrics_->Increment(kMetricIbEntriesDropped,
                        static_cast<int64_t>(freed));
  }
  tier.erase(it);
  return freed;
}

size_t IndexBuffer::DropPartition(size_t partition_id) {
  std::unique_lock lock(partitions_mu_);
  return DropLocked(partitions_, partition_id);
}

size_t IndexBuffer::DropColdRun(size_t partition_id) {
  std::unique_lock lock(partitions_mu_);
  return DropLocked(cold_, partition_id);
}

void IndexBuffer::Clear() {
  std::unique_lock lock(partitions_mu_);
  for (PartitionMap* tier : {&partitions_, &cold_}) {
    while (!tier->empty()) DropLocked(*tier, tier->begin()->first);
  }
}

// --- Cold tier ---------------------------------------------------------------

size_t IndexBuffer::DemotePartition(size_t partition_id) {
  size_t moved = 0;
  {
    std::unique_lock lock(partitions_mu_);
    auto it = partitions_.find(partition_id);
    if (it == partitions_.end()) return 0;
    moved = it->second->EntryCount();
    std::unique_ptr<BufferPartition> demoted =
        BufferPartition::Demoted(*it->second);
    std::unique_ptr<BufferPartition>& slot = cold_[partition_id];
    int64_t bytes = 0;
    if (slot != nullptr) {
      // A cold sibling already exists (demoted earlier; an indexing scan
      // then covered new pages hot). Merge: the sibling's entries are the
      // older epoch and precede this run's at equal keys.
      bytes = static_cast<int64_t>(slot->ApproxBytes());
      demoted->AbsorbOlder(*slot);
    }
    CountColdBytes(static_cast<int64_t>(demoted->ApproxBytes()) - bytes);
    slot = std::move(demoted);
    partitions_.erase(it);
  }
  if (metrics_ != nullptr) {
    metrics_->Increment(kMetricColdPartitionsDemoted);
  }
  return moved;
}

Status IndexBuffer::PromotePartition(size_t partition_id) {
  std::unique_lock lock(partitions_mu_);
  auto it = cold_.find(partition_id);
  if (it == cold_.end()) {
    return Status::NotFound("no cold partition with this id");
  }
  const BufferPartition& cold = *it->second;
  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<BufferPartition>& hot = partitions_[partition_id];
  if (hot == nullptr) {
    hot = std::make_unique<BufferPartition>(partition_id, options_.structure);
  }
  hot->AbsorbOlder(cold);

  CountColdBytes(-static_cast<int64_t>(cold.ApproxBytes()));
  if (metrics_ != nullptr) {
    metrics_->Increment(kMetricColdPartitionsPromoted);
    metrics_->Observe(
        kMetricPromotionLatencyMicros,
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  cold_.erase(it);
  return Status::Ok();
}

size_t IndexBuffer::ColdPartitionCount() const {
  std::shared_lock lock(partitions_mu_);
  return cold_.size();
}

size_t IndexBuffer::ColdEntries() const {
  std::shared_lock lock(partitions_mu_);
  size_t entries = 0;
  for (const auto& [id, cold] : cold_) entries += cold->EntryCount();
  return entries;
}

size_t IndexBuffer::ColdBytes() const {
  std::shared_lock lock(partitions_mu_);
  size_t bytes = 0;
  for (const auto& [id, cold] : cold_) bytes += cold->ApproxBytes();
  return bytes;
}

}  // namespace aib
