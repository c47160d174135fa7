#ifndef AIB_BTREE_INDEX_STRUCTURE_H_
#define AIB_BTREE_INDEX_STRUCTURE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"

namespace aib {

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
