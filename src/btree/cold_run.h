#ifndef AIB_BTREE_COLD_RUN_H_
#define AIB_BTREE_COLD_RUN_H_

#include <vector>

#include "btree/index_structure.h"
#include "common/types.h"

namespace aib {

/// Read-optimized cold-tier run: one sorted, densely packed vector of
/// IndexEntry (12 bytes each) behind the IndexStructure interface.
///
/// Demotion compacts a hot BufferPartition's B+-tree into one of these,
/// which the demoted partition then holds as its structure (2-Tree style,
/// Yao et al.): probes stay answerable at binary-search cost while the
/// partition no longer charges the hot-tier entry budget,
/// and promotion back into the hot tree is a linear replay of the packed
/// entries — memcpy-class work instead of a full indexing re-scan.
///
/// Ordering contract: `Build` keeps the order the source structure emitted
/// rids with equal keys in: BTree::ForEachEntry is already key-ordered with
/// insertion-ordered postings, and any other source is *stable*-sorted.
/// Lookup/Scan therefore emit rids in exactly the sequence the hot tree
/// would have — the property the demotion and serial/parallel
/// bit-identity suites pin.
///
/// Mutation is the exception, not the rule: Insert/Remove exist so the
/// Table I DML matrix can patch a cold run in place instead of
/// invalidating it, and they are O(n) memmoves. Heavy writers should
/// promote first; the maintenance path only patches single tuples.
class ColdRun final : public IndexStructure {
 public:
  ColdRun() = default;

  /// Replaces the contents with a compacted copy of `source` (sorted by key,
  /// emission order preserved within a key).
  void Build(const IndexStructure& source);

  void Insert(Value key, const Rid& rid) override;
  bool Remove(Value key, const Rid& rid) override;
  size_t RemoveKey(Value key) override;
  void Lookup(Value key, std::vector<Rid>* out) const override;
  void Scan(Value lo, Value hi,
            const std::function<void(Value, const Rid&)>& fn) const override;
  void ForEachEntry(
      const std::function<void(Value, const Rid&)>& fn) const override;
  size_t EntryCount() const override { return entries_.size(); }
  size_t ApproxBytes() const override;
  void Clear() override { entries_.clear(); entries_.shrink_to_fit(); }

  /// Merges `older`'s entries in, ahead of this run's at equal keys —
  /// `older` is an earlier-epoch sibling of the same partition, so its
  /// postings precede. Both runs stay sorted; the merge is linear.
  void MergeOlder(const ColdRun& older);

  /// Smallest/largest key present. Only valid when EntryCount() > 0.
  Value MinKey() const { return entries_.front().key; }
  Value MaxKey() const { return entries_.back().key; }

  const std::vector<IndexEntry>& entries() const { return entries_; }

 private:
  std::vector<IndexEntry> entries_;
};

}  // namespace aib

#endif  // AIB_BTREE_COLD_RUN_H_
