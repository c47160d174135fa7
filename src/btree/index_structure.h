#ifndef AIB_BTREE_INDEX_STRUCTURE_H_
#define AIB_BTREE_INDEX_STRUCTURE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"

namespace aib {

/// One (key, rid) index entry, 12 bytes. BTree leaves and ColdRun hold
/// these in packed arrays sorted by key, insertion order within a key.
struct IndexEntry {
  Value key;
  Rid rid;
};
static_assert(sizeof(IndexEntry) == 12);

/// Orders entries, and entries against keys, by key alone.
struct EntryKeyLess {
  bool operator()(IndexEntry a, IndexEntry b) const { return a.key < b.key; }
  bool operator()(IndexEntry e, Value key) const { return e.key < key; }
  bool operator()(Value key, IndexEntry e) const { return key < e.key; }
};

/// The first entry of key-sorted `entries` whose key is >= `key`. It halves
/// without branching, which beats std::lower_bound on a leaf's short array.
inline auto EntriesFrom(const std::vector<IndexEntry>& entries, Value key) {
  auto first = entries.begin();
  if (entries.empty()) return first;
  for (size_t n = entries.size(); n > 1; n -= n / 2) {
    first = first[n / 2].key < key ? first + n / 2 : first;
  }
  return first->key < key ? first + 1 : first;
}

/// The [first, last) range of `key`'s entries in key-sorted `entries`.
inline auto EntriesOf(const std::vector<IndexEntry>& entries, Value key) {
  const auto first = EntriesFrom(entries, key);
  auto last = first;
  while (last != entries.end() && last->key == key) ++last;
  return std::pair(first, last);
}

/// Abstract key → Rid-postings index. The paper notes that "which particular
/// index structure is used is not essential for the general idea of the
/// Index Buffer" (§III). PartialIndex and IndexBuffer are written against
/// this interface; the B+-tree and the hash table implement it, and the
/// structure ablation bench swaps them.
class IndexStructure {
 public:
  virtual ~IndexStructure() = default;

  /// Adds an entry. Duplicate (key, rid) pairs are allowed and stored; the
  /// callers of this library never insert duplicates.
  virtual void Insert(Value key, const Rid& rid) = 0;

  /// Hints that about `expected_entries` inserts are coming so the
  /// structure can size itself up front (an indexing scan knows the exact
  /// count from the C[p] counters before it starts staging entries).
  /// Purely advisory — the default does nothing, which is right for the
  /// node-at-a-time trees.
  virtual void Reserve(size_t expected_entries) { (void)expected_entries; }

  /// Removes one (key, rid) entry. Returns false if absent.
  virtual bool Remove(Value key, const Rid& rid) = 0;

  /// Removes all entries with `key`; returns how many were removed.
  virtual size_t RemoveKey(Value key) = 0;

  /// Appends all rids with `key` to `out`.
  virtual void Lookup(Value key, std::vector<Rid>* out) const = 0;

  /// Invokes `fn` for every entry with key in [lo, hi]. Ordered structures
  /// visit keys in ascending order; hash structures in arbitrary order.
  virtual void Scan(Value lo, Value hi,
                    const std::function<void(Value, const Rid&)>& fn)
      const = 0;

  /// Invokes `fn` for every entry.
  virtual void ForEachEntry(
      const std::function<void(Value, const Rid&)>& fn) const = 0;

  /// Total number of (key, rid) entries. The Index Buffer Space budget of
  /// the paper is expressed in entries.
  virtual size_t EntryCount() const = 0;

  /// Approximate heap footprint in bytes, for byte-based budgets.
  virtual size_t ApproxBytes() const = 0;

  virtual void Clear() = 0;
};

enum class IndexStructureKind {
  kBTree,
  kHash,
};

/// Creates an empty structure of the given kind with default parameters.
std::unique_ptr<IndexStructure> CreateIndexStructure(IndexStructureKind kind);

}  // namespace aib

#endif  // AIB_BTREE_INDEX_STRUCTURE_H_
