#include "btree/hash_index.h"

#include <algorithm>

#include "btree/btree.h"

namespace aib {

void HashIndex::Insert(Value key, const Rid& rid) {
  map_[key].push_back(rid);
  ++entry_count_;
}

void HashIndex::Reserve(size_t expected_entries) {
  // Upper bound: at most one bucket per entry. Avoids the rehash cascade
  // during the bulk inserts of an indexing scan leg.
  map_.reserve(map_.size() + expected_entries);
}

bool HashIndex::Remove(Value key, const Rid& rid) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  auto& postings = it->second;
  auto rid_it = std::find(postings.begin(), postings.end(), rid);
  if (rid_it == postings.end()) return false;
  postings.erase(rid_it);
  --entry_count_;
  if (postings.empty()) map_.erase(it);
  return true;
}

size_t HashIndex::RemoveKey(Value key) {
  auto it = map_.find(key);
  if (it == map_.end()) return 0;
  const size_t removed = it->second.size();
  map_.erase(it);
  entry_count_ -= removed;
  return removed;
}

void HashIndex::Lookup(Value key, std::vector<Rid>* out) const {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  out->insert(out->end(), it->second.begin(), it->second.end());
}

void HashIndex::Scan(Value lo, Value hi,
                     const std::function<void(Value, const Rid&)>& fn) const {
  for (const auto& [key, postings] : map_) {
    if (key < lo || key > hi) continue;
    for (const Rid& rid : postings) fn(key, rid);
  }
}

void HashIndex::ForEachEntry(
    const std::function<void(Value, const Rid&)>& fn) const {
  for (const auto& [key, postings] : map_) {
    for (const Rid& rid : postings) fn(key, rid);
  }
}

size_t HashIndex::ApproxBytes() const {
  return map_.size() * (sizeof(Value) + sizeof(std::vector<Rid>) + 32) +
         entry_count_ * sizeof(Rid);
}

void HashIndex::Clear() {
  map_.clear();
  entry_count_ = 0;
}

std::unique_ptr<IndexStructure> CreateIndexStructure(IndexStructureKind kind) {
  switch (kind) {
    case IndexStructureKind::kBTree:
      return std::make_unique<BTree>();
    case IndexStructureKind::kHash:
      return std::make_unique<HashIndex>();
  }
  return nullptr;
}

}  // namespace aib
