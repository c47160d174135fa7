#include "btree/cold_run.h"

#include <algorithm>
#include <iterator>

namespace aib {

void ColdRun::Build(const IndexStructure& source) {
  entries_.clear();
  entries_.reserve(source.EntryCount());
  source.ForEachEntry([this](Value key, const Rid& rid) {
    entries_.push_back(Entry{key, rid});
  });
  // Stable: rids within a key keep the source's emission order, so probes
  // against the run return the exact sequence the hot tree produced.
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key < b.key;
                   });
}

void ColdRun::Insert(Value key, const Rid& rid) {
  // DML patch path: place the new entry after existing duplicates of the
  // same key, matching where a fresh hot-tree insert would append it in
  // the postings list.
  auto it = std::upper_bound(entries_.begin(), entries_.end(), key,
                             [](Value k, const Entry& e) { return k < e.key; });
  entries_.insert(it, Entry{key, rid});
}

bool ColdRun::Remove(Value key, const Rid& rid) {
  auto lo = std::lower_bound(entries_.begin(), entries_.end(), key,
                             [](const Entry& e, Value k) { return e.key < k; });
  for (auto it = lo; it != entries_.end() && it->key == key; ++it) {
    if (it->rid == rid) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

size_t ColdRun::RemoveKey(Value key) {
  auto lo = std::lower_bound(entries_.begin(), entries_.end(), key,
                             [](const Entry& e, Value k) { return e.key < k; });
  auto hi = lo;
  while (hi != entries_.end() && hi->key == key) ++hi;
  size_t removed = static_cast<size_t>(hi - lo);
  entries_.erase(lo, hi);
  return removed;
}

void ColdRun::MergeOlder(const ColdRun& older) {
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + older.entries_.size());
  // std::merge is stable and prefers the first range on ties, which puts
  // the older epoch's postings first.
  std::merge(older.entries_.begin(), older.entries_.end(), entries_.begin(),
             entries_.end(), std::back_inserter(merged),
             [](const Entry& a, const Entry& b) { return a.key < b.key; });
  entries_ = std::move(merged);
}

void ColdRun::Lookup(Value key, std::vector<Rid>* out) const {
  auto lo = std::lower_bound(entries_.begin(), entries_.end(), key,
                             [](const Entry& e, Value k) { return e.key < k; });
  for (auto it = lo; it != entries_.end() && it->key == key; ++it) {
    out->push_back(it->rid);
  }
}

void ColdRun::Scan(Value lo, Value hi,
                   const std::function<void(Value, const Rid&)>& fn) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), lo,
                             [](const Entry& e, Value k) { return e.key < k; });
  for (; it != entries_.end() && it->key <= hi; ++it) {
    fn(it->key, it->rid);
  }
}

void ColdRun::ForEachEntry(
    const std::function<void(Value, const Rid&)>& fn) const {
  for (const Entry& e : entries_) fn(e.key, e.rid);
}

size_t ColdRun::ApproxBytes() const {
  return sizeof(*this) + entries_.capacity() * sizeof(Entry);
}

}  // namespace aib
