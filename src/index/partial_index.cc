#include "index/partial_index.h"

#include <cassert>
#include <mutex>

namespace aib {

PartialIndex::PartialIndex(const Table* table, ColumnId column,
                           ValueCoverage coverage, IndexStructureKind kind,
                           Metrics* metrics)
    : table_(table),
      column_(column),
      coverage_(std::move(coverage)),
      kind_(kind),
      structure_(CreateIndexStructure(kind)),
      metrics_(metrics),
      probes_(metrics != nullptr ? metrics->Counter(kMetricIndexProbes)
                                 : nullptr) {
  assert(table_->schema().column(column_).type == ColumnType::kInt32);
}

Status PartialIndex::Build() {
  std::unique_lock lock(mu_);
  structure_->Clear();
  version_.fetch_add(1, std::memory_order_release);
  int64_t inserted = 0;
  Status status = Status::Ok();
  const HeapFile& heap = table_->heap();
  for (size_t page = 0; page < heap.PageCount() && status.ok(); ++page) {
    status = heap.ForEachRecordOnPage(
        page, [&](const Rid& rid, std::span<const Value> ints) {
          if (coverage_.Covers(ints[column_])) {
            structure_->Insert(ints[column_], rid);
            ++inserted;
          }
        });
  }
  if (metrics_ != nullptr && inserted > 0) {
    metrics_->Increment(kMetricIndexInserts, inserted);
  }
  return status;
}

void PartialIndex::Lookup(Value v, std::vector<Rid>* out) const {
  if (probes_ != nullptr) probes_->fetch_add(1, std::memory_order_relaxed);
  std::shared_lock lock(mu_);
  structure_->Lookup(v, out);
}

void PartialIndex::Scan(Value lo, Value hi,
                        const std::function<void(Value, const Rid&)>& fn)
    const {
  if (probes_ != nullptr) probes_->fetch_add(1, std::memory_order_relaxed);
  std::shared_lock lock(mu_);
  structure_->Scan(lo, hi, fn);
}

void PartialIndex::Add(Value v, const Rid& rid) {
  assert(coverage_.Covers(v));
  {
    std::unique_lock lock(mu_);
    structure_->Insert(v, rid);
    version_.fetch_add(1, std::memory_order_release);
  }
  if (metrics_ != nullptr) metrics_->Increment(kMetricIndexInserts);
}

void PartialIndex::Remove(Value v, const Rid& rid) {
  {
    std::unique_lock lock(mu_);
    structure_->Remove(v, rid);
    version_.fetch_add(1, std::memory_order_release);
  }
  if (metrics_ != nullptr) metrics_->Increment(kMetricIndexRemoves);
}

void PartialIndex::Update(Value old_v, const Rid& old_rid, Value new_v,
                          const Rid& new_rid) {
  {
    std::unique_lock lock(mu_);
    structure_->Remove(old_v, old_rid);
    structure_->Insert(new_v, new_rid);
    version_.fetch_add(1, std::memory_order_release);
  }
  if (metrics_ != nullptr) {
    metrics_->Increment(kMetricIndexRemoves);
    metrics_->Increment(kMetricIndexInserts);
  }
}

size_t PartialIndex::AddValue(Value v, const std::vector<Rid>& rids) {
  {
    std::unique_lock lock(mu_);
    coverage_.Add(v);
    for (const Rid& rid : rids) structure_->Insert(v, rid);
    version_.fetch_add(1, std::memory_order_release);
  }
  if (metrics_ != nullptr) {
    metrics_->Increment(kMetricIndexInserts,
                        static_cast<int64_t>(rids.size()));
  }
  return rids.size();
}

std::vector<Rid> PartialIndex::RemoveValue(Value v) {
  std::vector<Rid> removed;
  {
    std::unique_lock lock(mu_);
    structure_->Lookup(v, &removed);
    structure_->RemoveKey(v);
    coverage_.Remove(v);
    version_.fetch_add(1, std::memory_order_release);
  }
  if (metrics_ != nullptr) {
    metrics_->Increment(kMetricIndexRemoves,
                        static_cast<int64_t>(removed.size()));
  }
  return removed;
}

size_t PartialIndex::EntryCount() const {
  std::shared_lock lock(mu_);
  return structure_->EntryCount();
}

}  // namespace aib
