#include "btree/cold_run.h"

#include <algorithm>
#include <iterator>

namespace aib {

void ColdRun::Build(const IndexStructure& source) {
  entries_.clear();
  entries_.reserve(source.EntryCount());
  source.ForEachEntry([this](Value key, const Rid& rid) {
    entries_.push_back(IndexEntry{key, rid});
  });
  // A B+-tree emits key order already; a hash source needs the sort, which
  // is stable so rids within a key keep the source's emission order and
  // probes against the run return the exact sequence the source produced.
  if (!std::is_sorted(entries_.begin(), entries_.end(), EntryKeyLess{})) {
    std::stable_sort(entries_.begin(), entries_.end(), EntryKeyLess{});
  }
}

void ColdRun::Insert(Value key, const Rid& rid) {
  // DML patch path: place the new entry after existing duplicates of the
  // same key, matching where a fresh hot-tree insert would append it in
  // the postings list.
  auto it =
      std::upper_bound(entries_.begin(), entries_.end(), key, EntryKeyLess{});
  entries_.insert(it, IndexEntry{key, rid});
}

bool ColdRun::Remove(Value key, const Rid& rid) {
  const auto [lo, hi] = EntriesOf(entries_, key);
  const auto it = std::find_if(
      lo, hi, [&rid](const IndexEntry& entry) { return entry.rid == rid; });
  if (it == hi) return false;
  entries_.erase(it);
  return true;
}

size_t ColdRun::RemoveKey(Value key) {
  const auto [lo, hi] = EntriesOf(entries_, key);
  const size_t removed = static_cast<size_t>(hi - lo);
  entries_.erase(lo, hi);
  return removed;
}

void ColdRun::MergeOlder(const ColdRun& older) {
  std::vector<IndexEntry> merged;
  merged.reserve(entries_.size() + older.entries_.size());
  // std::merge is stable and prefers the first range on ties, which puts
  // the older epoch's postings first.
  std::merge(older.entries_.begin(), older.entries_.end(), entries_.begin(),
             entries_.end(), std::back_inserter(merged), EntryKeyLess{});
  entries_ = std::move(merged);
}

void ColdRun::Lookup(Value key, std::vector<Rid>* out) const {
  const auto [lo, hi] = EntriesOf(entries_, key);
  for (auto it = lo; it != hi; ++it) out->push_back(it->rid);
}

void ColdRun::Scan(Value lo, Value hi,
                   const std::function<void(Value, const Rid&)>& fn) const {
  for (auto it = EntriesFrom(entries_, lo);
       it != entries_.end() && it->key <= hi; ++it) {
    fn(it->key, it->rid);
  }
}

void ColdRun::ForEachEntry(
    const std::function<void(Value, const Rid&)>& fn) const {
  for (const IndexEntry& e : entries_) fn(e.key, e.rid);
}

size_t ColdRun::ApproxBytes() const {
  return sizeof(*this) + entries_.capacity() * sizeof(IndexEntry);
}

}  // namespace aib
