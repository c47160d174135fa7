#ifndef AIB_BTREE_BTREE_H_
#define AIB_BTREE_BTREE_H_

#include <memory>
#include <vector>

#include "btree/index_structure.h"
#include "common/status.h"
#include "common/types.h"

namespace aib {

/// In-memory B+-tree from Value to Rids.
///
/// Structure: classic B+-tree with configurable fanout. Each leaf is one
/// packed IndexEntry array, sorted by key and in insertion order within a
/// key, reserved at the fanout and linked to the next for range scans. A
/// leaf splits only between keys, so a key's entries share one leaf, which
/// may grow past the fanout; random keys at fanout 64 cost ~20 bytes per
/// entry, nodes included. Inserts split full nodes top-down; deletes remove
/// entries without rebalancing (the "lazy deletion" of several production
/// B-trees), so heavy deletion may leave sparse leaves. `CheckInvariants()`
/// verifies ordering, linkage and the entry and key counts.
class BTree final : public IndexStructure {
 public:
  /// `fanout` is the maximum number of keys per node (>= 4).
  explicit BTree(int fanout = 64);
  ~BTree() override;

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  void Insert(Value key, const Rid& rid) override;
  bool Remove(Value key, const Rid& rid) override;
  size_t RemoveKey(Value key) override;
  void Lookup(Value key, std::vector<Rid>* out) const override;
  void Scan(Value lo, Value hi,
            const std::function<void(Value, const Rid&)>& fn) const override;
  void ForEachEntry(
      const std::function<void(Value, const Rid&)>& fn) const override;
  size_t EntryCount() const override { return entry_count_; }
  size_t ApproxBytes() const override;
  void Clear() override;

  /// Number of distinct keys currently present.
  size_t KeyCount() const { return key_count_; }

  /// Height of the tree (1 = root is a leaf).
  int Height() const;

  /// Verifies B+-tree invariants: key ordering within and across nodes,
  /// child separator consistency, that no key's entries span two leaves,
  /// and that the maintained entry/key counters match the leaf chain.
  Status CheckInvariants() const;

 private:
  struct Node;

  /// Finds the leaf that should hold `key`.
  Node* FindLeaf(Value key) const;

  /// Whether `node` must split first; a leaf holding one key never must.
  bool Full(const Node* node) const;

  /// Splits the full `index`-th child of the non-full `parent`.
  void SplitChild(Node* parent, int index);

  /// Inserts into the subtree at `node`, which is guaranteed non-full.
  void InsertNonFull(Node* node, Value key, const Rid& rid);

  Status CheckNode(const Node* node, bool is_root, Value lo, bool has_lo,
                   Value hi, bool has_hi, int depth, int leaf_depth) const;

  int fanout_;
  std::unique_ptr<Node> root_;
  size_t entry_count_ = 0;
  size_t key_count_ = 0;
};

}  // namespace aib

#endif  // AIB_BTREE_BTREE_H_
