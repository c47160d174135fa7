#include "core/index_buffer.h"

#include <cassert>
#include <chrono>
#include <mutex>

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
  return counters_.InitFromTable(index_->table(), *index_);
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

const BufferPartition* IndexBuffer::FindPartitionForPageLocked(
    size_t page) const {
  auto it = partitions_.find(PartitionIdFor(page));
  return it == partitions_.end() ? nullptr : it->second.get();
}

bool IndexBuffer::PageInBuffer(size_t page) const {
  std::shared_lock lock(partitions_mu_);
  const BufferPartition* partition = FindPartitionForPageLocked(page);
  if (partition != nullptr && partition->CoversPage(page)) return true;
  auto it = cold_.find(PartitionIdFor(page));
  return it != cold_.end() && it->second.page_entries.contains(page);
}

void IndexBuffer::AddTuple(size_t page, Value value, const Rid& rid) {
  bool patched_cold = false;
  {
    std::unique_lock lock(partitions_mu_);
    auto cold_it = cold_.find(PartitionIdFor(page));
    if (cold_it != cold_.end() &&
        cold_it->second.page_entries.contains(page)) {
      // Table I patch of a cold-covered page: the run absorbs the entry in
      // place so coverage never goes stale.
      ColdPartition& cold = cold_it->second;
      cold.run.Insert(value, rid);
      cold.page_entries[page] += 1;
      cold.entries += 1;
      RefreshColdRunStats(&cold);
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
    auto cold_it = cold_.find(PartitionIdFor(page));
    if (cold_it != cold_.end() &&
        cold_it->second.page_entries.contains(page)) {
      ColdPartition& cold = cold_it->second;
      removed = cold.run.Remove(value, rid);
      if (removed) {
        // The page stays covered even at zero entries, mirroring the hot
        // tier's RemoveEntry semantics.
        cold.page_entries[page] -= 1;
        cold.entries -= 1;
        RefreshColdRunStats(&cold);
        patched_cold = true;
      }
    } else {
      auto it = partitions_.find(PartitionIdFor(page));
      if (it == partitions_.end()) return false;
      removed = it->second->RemoveEntry(page, value, rid);
    }
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

void IndexBuffer::Lookup(Value value, std::vector<Rid>* out,
                         ProbeTierStats* tier) const {
  std::shared_lock lock(partitions_mu_);
  int64_t probes = 0;
  int64_t cold_hits = 0;
  auto hot_it = partitions_.begin();
  auto cold_it = cold_.begin();
  while (hot_it != partitions_.end() || cold_it != cold_.end()) {
    const bool take_cold =
        cold_it != cold_.end() &&
        (hot_it == partitions_.end() || cold_it->first <= hot_it->first);
    const size_t before = out->size();
    ++probes;
    if (take_cold) {
      cold_it->second.run.Lookup(value, out);
      const size_t matches = out->size() - before;
      if (matches > 0) ++cold_hits;
      if (tier != nullptr) {
        ++tier->cold_partitions;
        tier->cold_matches += matches;
      }
      ++cold_it;
    } else {
      hot_it->second->Lookup(value, out);
      if (tier != nullptr) {
        ++tier->hot_partitions;
        tier->hot_matches += out->size() - before;
      }
      ++hot_it;
    }
  }
  CountProbes(probes, cold_hits);
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
  auto hot_it = partitions_.begin();
  auto cold_it = cold_.begin();
  int64_t probes = 0;
  int64_t cold_hits = 0;
  size_t matches = 0;
  auto counting_fn = [&](Value v, const Rid& rid) {
    ++matches;
    fn(v, rid);
  };
  while (hot_it != partitions_.end() || cold_it != cold_.end()) {
    const bool has_cold =
        cold_it != cold_.end() &&
        (hot_it == partitions_.end() || cold_it->first <= hot_it->first);
    const bool has_hot =
        hot_it != partitions_.end() &&
        (cold_it == cold_.end() || hot_it->first <= cold_it->first);
    matches = 0;
    if (has_cold && has_hot) {
      std::vector<std::pair<Value, Rid>> older;
      std::vector<std::pair<Value, Rid>> newer;
      cold_it->second.run.Scan(lo, hi, [&](Value v, const Rid& rid) {
        older.emplace_back(v, rid);
      });
      hot_it->second->Scan(lo, hi, [&](Value v, const Rid& rid) {
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
      probes += 2;
      if (!older.empty()) ++cold_hits;
      if (tier != nullptr) {
        ++tier->cold_partitions;
        tier->cold_matches += older.size();
        ++tier->hot_partitions;
        tier->hot_matches += newer.size();
      }
      ++cold_it;
      ++hot_it;
    } else if (has_cold) {
      cold_it->second.run.Scan(lo, hi, counting_fn);
      ++probes;
      if (matches > 0) ++cold_hits;
      if (tier != nullptr) {
        ++tier->cold_partitions;
        tier->cold_matches += matches;
      }
      ++cold_it;
    } else {
      hot_it->second->Scan(lo, hi, counting_fn);
      ++probes;
      if (tier != nullptr) {
        ++tier->hot_partitions;
        tier->hot_matches += matches;
      }
      ++hot_it;
    }
  }
  CountProbes(probes, cold_hits);
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

std::vector<IndexBuffer::PartitionStats> IndexBuffer::PartitionSnapshot()
    const {
  const double mean_interval = MeanInterval();
  std::shared_lock lock(partitions_mu_);
  std::vector<PartitionStats> stats;
  stats.reserve(partitions_.size());
  for (const auto& [id, partition] : partitions_) {
    stats.push_back({id, partition->EntryCount(),
                     partition->CoveredPageCount(),
                     partition->Benefit(mean_interval)});
  }
  return stats;
}

size_t IndexBuffer::DropPartitionLocked(size_t partition_id) {
  auto it = partitions_.find(partition_id);
  if (it == partitions_.end()) return 0;
  const BufferPartition& partition = *it->second;
  const size_t freed = partition.EntryCount();
  // Every page the partition covered regains its unindexed tuples: C[p]
  // goes back to the number of entries the buffer held for it.
  for (const auto& [page, entry_count] : partition.page_entries()) {
    counters_.EnsureSize(page + 1);
    counters_.Set(page, static_cast<uint32_t>(entry_count));
  }
  partitions_.erase(it);
  if (metrics_ != nullptr) {
    metrics_->Increment(kMetricIbPartitionsDropped);
    metrics_->Increment(kMetricIbEntriesDropped,
                        static_cast<int64_t>(freed));
  }
  return freed;
}

size_t IndexBuffer::DropPartition(size_t partition_id) {
  std::unique_lock lock(partitions_mu_);
  return DropPartitionLocked(partition_id);
}

void IndexBuffer::Clear() {
  std::unique_lock lock(partitions_mu_);
  // Collect ids first; the drop helpers mutate the maps.
  std::vector<size_t> ids;
  ids.reserve(partitions_.size());
  for (const auto& [id, partition] : partitions_) ids.push_back(id);
  for (size_t id : ids) DropPartitionLocked(id);
  ids.clear();
  for (const auto& [id, cold] : cold_) ids.push_back(id);
  for (size_t id : ids) DropColdRunLocked(id);
}

// --- Cold tier ---------------------------------------------------------------

void IndexBuffer::RefreshColdRunStats(ColdPartition* cold) const {
  const size_t old_bytes = cold->bytes;
  cold->bytes = cold->run.ApproxBytes();
  if (cold->run.EntryCount() > 0) {
    cold->min_key = cold->run.MinKey();
    cold->max_key = cold->run.MaxKey();
  }
  if (metrics_ != nullptr && cold->bytes != old_bytes) {
    metrics_->Increment(kMetricColdBytes, static_cast<int64_t>(cold->bytes) -
                                              static_cast<int64_t>(old_bytes));
  }
}

size_t IndexBuffer::DemotePartition(size_t partition_id) {
  size_t moved = 0;
  {
    std::unique_lock lock(partitions_mu_);
    auto it = partitions_.find(partition_id);
    if (it == partitions_.end()) return 0;
    const BufferPartition& partition = *it->second;
    moved = partition.EntryCount();

    ColdRun run;
    run.Build(partition.structure());

    ColdPartition& cold = cold_[partition_id];
    if (cold.entries > 0 || !cold.page_entries.empty()) {
      // A cold sibling already exists (demoted earlier; an indexing scan
      // then covered new pages hot). Merge: the sibling's entries are the
      // older epoch and precede this run's at equal keys.
      run.MergeOlder(cold.run);
    }
    for (const auto& [page, count] : partition.page_entries()) {
      cold.page_entries[page] += count;
    }
    cold.run = std::move(run);
    cold.entries = cold.run.EntryCount();
    RefreshColdRunStats(&cold);
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
  ColdPartition& cold = it->second;
  const auto start = std::chrono::steady_clock::now();
  auto hot_it = partitions_.find(partition_id);
  if (hot_it == partitions_.end()) {
    hot_it = partitions_
                 .emplace(partition_id, std::make_unique<BufferPartition>(
                                            partition_id, options_.structure))
                 .first;
    hot_it->second->Reserve(cold.entries);
  }
  BufferPartition* partition = hot_it->second.get();
  if (partition->EntryCount() == 0) {
    cold.run.ForEachEntry([partition](Value value, const Rid& rid) {
      partition->InsertEntryRaw(value, rid);
    });
  } else {
    // The sibling accumulated newer entries after the demotion; appending
    // would order the older epoch's postings last at shared keys. Merge
    // instead, older epoch first.
    partition->MergeOlderEntries(cold.run);
  }
  partition->MergePageEntries(cold.page_entries);

  if (metrics_ != nullptr) {
    metrics_->Increment(kMetricColdPartitionsPromoted);
    metrics_->Increment(kMetricColdBytes,
                        -static_cast<int64_t>(cold.bytes));
    metrics_->Observe(
        kMetricPromotionLatencyMicros,
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  cold_.erase(it);
  return Status::Ok();
}

size_t IndexBuffer::DropColdRunLocked(size_t partition_id) {
  auto it = cold_.find(partition_id);
  if (it == cold_.end()) return 0;
  ColdPartition& cold = it->second;
  const size_t discarded = cold.entries;
  // Covered pages regain their unindexed tuples, exactly as a hot drop.
  for (const auto& [page, entry_count] : cold.page_entries) {
    counters_.EnsureSize(page + 1);
    counters_.Set(page, static_cast<uint32_t>(entry_count));
  }
  if (metrics_ != nullptr) {
    metrics_->Increment(kMetricColdRunsInvalidated);
    metrics_->Increment(kMetricIbPartitionsDropped);
    metrics_->Increment(kMetricIbEntriesDropped,
                        static_cast<int64_t>(discarded));
    if (cold.bytes > 0) {
      metrics_->Increment(kMetricColdBytes,
                          -static_cast<int64_t>(cold.bytes));
    }
  }
  cold_.erase(it);
  return discarded;
}

size_t IndexBuffer::DropColdRun(size_t partition_id) {
  std::unique_lock lock(partitions_mu_);
  return DropColdRunLocked(partition_id);
}

size_t IndexBuffer::ColdPartitionCount() const {
  std::shared_lock lock(partitions_mu_);
  return cold_.size();
}

size_t IndexBuffer::ColdEntries() const {
  std::shared_lock lock(partitions_mu_);
  size_t entries = 0;
  for (const auto& [id, cold] : cold_) entries += cold.entries;
  return entries;
}

size_t IndexBuffer::ColdBytes() const {
  std::shared_lock lock(partitions_mu_);
  size_t bytes = 0;
  for (const auto& [id, cold] : cold_) bytes += cold.bytes;
  return bytes;
}

std::vector<IndexBuffer::ColdStats> IndexBuffer::ColdSnapshot() const {
  std::shared_lock lock(partitions_mu_);
  std::vector<ColdStats> stats;
  stats.reserve(cold_.size());
  for (const auto& [id, cold] : cold_) {
    ColdStats s;
    s.id = id;
    s.entries = cold.entries;
    s.covered_pages = cold.page_entries.size();
    s.min_key = cold.min_key;
    s.max_key = cold.max_key;
    stats.push_back(std::move(s));
  }
  return stats;
}

}  // namespace aib
