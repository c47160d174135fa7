#include "btree/btree.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace aib {

struct BTree::Node {
  Node(bool leaf, int fanout) : is_leaf(leaf) {
    if (leaf) entries.reserve(static_cast<size_t>(fanout));
  }

  bool is_leaf;
  /// Internal nodes: distinct separators, children.size() == keys.size() + 1.
  /// Child i holds keys < keys[i]; child i+1 holds keys >= keys[i].
  std::vector<Value> keys;
  std::vector<std::unique_ptr<Node>> children;
  /// Leaves: entries sorted by key, insertion order within a key.
  std::vector<IndexEntry> entries;
  /// Leaf chain, ascending key order.
  Node* next = nullptr;
};

BTree::BTree(int fanout) : fanout_(fanout) {
  assert(fanout_ >= 4);
  root_ = std::make_unique<Node>(/*leaf=*/true, fanout_);
}

BTree::~BTree() = default;

BTree::Node* BTree::FindLeaf(Value key) const {
  Node* node = root_.get();
  while (!node->is_leaf) {
    const size_t index =
        std::upper_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin();
    node = node->children[index].get();
  }
  return node;
}

bool BTree::Full(const Node* node) const {
  const size_t fanout = static_cast<size_t>(fanout_);
  if (!node->is_leaf) return node->keys.size() >= fanout;
  return node->entries.size() >= fanout &&
         node->entries.front().key != node->entries.back().key;
}

void BTree::SplitChild(Node* parent, int index) {
  Node* child = parent->children[index].get();
  auto right = std::make_unique<Node>(child->is_leaf, fanout_);
  Value separator;

  if (child->is_leaf) {
    // Cut before the middle entry's key, else after it (Full(): two keys).
    std::vector<IndexEntry>& entries = child->entries;
    const auto [lo, hi] = EntriesOf(entries, entries[entries.size() / 2].key);
    const auto cut = lo != entries.begin() ? lo : hi;
    separator = cut->key;
    right->entries.assign(cut, entries.cend());
    entries.erase(cut, entries.end());
    right->next = child->next;
    child->next = right.get();
  } else {
    const size_t mid = child->keys.size() / 2;
    separator = child->keys[mid];
    right->keys.assign(child->keys.begin() + mid + 1, child->keys.end());
    right->children.assign(
        std::make_move_iterator(child->children.begin() + mid + 1),
        std::make_move_iterator(child->children.end()));
    child->keys.resize(mid);
    child->children.resize(mid + 1);
  }

  parent->keys.insert(parent->keys.begin() + index, separator);
  parent->children.insert(parent->children.begin() + index + 1,
                          std::move(right));
}

void BTree::InsertNonFull(Node* node, Value key, const Rid& rid) {
  while (!node->is_leaf) {
    size_t index =
        std::upper_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin();
    if (Full(node->children[index].get())) {
      SplitChild(node, static_cast<int>(index));
      if (key >= node->keys[index]) ++index;
    }
    node = node->children[index].get();
  }

  // After the key's existing entries: postings keep insertion order.
  std::vector<IndexEntry>& entries = node->entries;
  const auto pos =
      std::upper_bound(entries.begin(), entries.end(), key, EntryKeyLess{});
  if (pos == entries.begin() || std::prev(pos)->key != key) ++key_count_;
  entries.insert(pos, IndexEntry{key, rid});
  ++entry_count_;
}

void BTree::Insert(Value key, const Rid& rid) {
  if (Full(root_.get())) {
    auto new_root = std::make_unique<Node>(/*leaf=*/false, fanout_);
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }
  InsertNonFull(root_.get(), key, rid);
}

bool BTree::Remove(Value key, const Rid& rid) {
  Node* leaf = FindLeaf(key);
  const auto [lo, hi] = EntriesOf(leaf->entries, key);
  const auto it = std::find_if(
      lo, hi, [&rid](const IndexEntry& entry) { return entry.rid == rid; });
  if (it == hi) return false;
  if (hi - lo == 1) --key_count_;
  leaf->entries.erase(it);
  --entry_count_;
  return true;
}

size_t BTree::RemoveKey(Value key) {
  Node* leaf = FindLeaf(key);
  const auto [lo, hi] = EntriesOf(leaf->entries, key);
  const size_t removed = static_cast<size_t>(hi - lo);
  if (removed == 0) return 0;
  leaf->entries.erase(lo, hi);
  entry_count_ -= removed;
  --key_count_;
  return removed;
}

void BTree::Lookup(Value key, std::vector<Rid>* out) const {
  const auto [lo, hi] = EntriesOf(FindLeaf(key)->entries, key);
  for (auto it = lo; it != hi; ++it) out->push_back(it->rid);
}

void BTree::Scan(Value lo, Value hi,
                 const std::function<void(Value, const Rid&)>& fn) const {
  for (const Node* leaf = FindLeaf(lo); leaf != nullptr; leaf = leaf->next) {
    for (auto it = EntriesFrom(leaf->entries, lo); it != leaf->entries.end();
         ++it) {
      if (it->key > hi) return;
      fn(it->key, it->rid);
    }
  }
}

void BTree::ForEachEntry(
    const std::function<void(Value, const Rid&)>& fn) const {
  const Node* node = root_.get();
  while (!node->is_leaf) node = node->children[0].get();
  for (const Node* leaf = node; leaf != nullptr; leaf = leaf->next) {
    for (const IndexEntry& entry : leaf->entries) fn(entry.key, entry.rid);
  }
}

size_t BTree::ApproxBytes() const {
  // Every node plus the capacity of its arrays: the tree's heap footprint
  // short of the allocator's per-block overhead.
  size_t bytes = sizeof(*this);
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    bytes += sizeof(Node) + node->keys.capacity() * sizeof(Value) +
             node->children.capacity() * sizeof(node->children[0]) +
             node->entries.capacity() * sizeof(IndexEntry);
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return bytes;
}

void BTree::Clear() {
  root_ = std::make_unique<Node>(/*leaf=*/true, fanout_);
  entry_count_ = 0;
  key_count_ = 0;
}

int BTree::Height() const {
  int height = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children[0].get();
    ++height;
  }
  return height;
}

Status BTree::CheckNode(const Node* node, bool is_root, Value lo, bool has_lo,
                        Value hi, bool has_hi, int depth,
                        int leaf_depth) const {
  const auto outside = [&](Value key) {
    return (has_lo && key < lo) || (has_hi && key >= hi);
  };
  if (node->is_leaf) {
    if (depth != leaf_depth) return Status::Corruption("uneven leaf depth");
    for (size_t i = 0; i < node->entries.size(); ++i) {
      const Value key = node->entries[i].key;
      if (i > 0 && node->entries[i - 1].key > key) {
        return Status::Corruption("leaf entries out of key order");
      }
      if (outside(key)) return Status::Corruption("leaf key out of range");
    }
    return Status::Ok();
  }
  if (node->children.size() != node->keys.size() + 1) {
    return Status::Corruption("internal children/keys size mismatch");
  }
  if (!is_root && node->keys.empty()) {
    return Status::Corruption("empty internal node");
  }
  for (size_t i = 0; i < node->keys.size(); ++i) {
    if (i > 0 && node->keys[i - 1] >= node->keys[i]) {
      return Status::Corruption("keys out of order");
    }
    if (outside(node->keys[i])) return Status::Corruption("key out of range");
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const bool child_has_lo = i > 0 || has_lo;
    const Value child_lo = i > 0 ? node->keys[i - 1] : lo;
    const bool child_has_hi = i < node->keys.size() || has_hi;
    const Value child_hi = i < node->keys.size() ? node->keys[i] : hi;
    AIB_RETURN_IF_ERROR(CheckNode(node->children[i].get(), false, child_lo,
                                  child_has_lo, child_hi, child_has_hi,
                                  depth + 1, leaf_depth));
  }
  return Status::Ok();
}

Status BTree::CheckInvariants() const {
  int leaf_depth = 0;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children[0].get();
    ++leaf_depth;
  }
  AIB_RETURN_IF_ERROR(CheckNode(root_.get(), /*is_root=*/true, 0, false, 0,
                                false, 0, leaf_depth));

  // The leaf chain visits keys in ascending order, and each key's entries
  // in one leaf.
  size_t keys_seen = 0;
  size_t entries_seen = 0;
  Value prev = 0;
  for (const Node* leaf = node; leaf != nullptr; leaf = leaf->next) {
    for (size_t i = 0; i < leaf->entries.size(); ++i) {
      const Value key = leaf->entries[i].key;
      ++entries_seen;
      if (keys_seen > 0 && key < prev) {
        return Status::Corruption("leaf chain out of order");
      }
      if (keys_seen > 0 && key == prev) {
        if (i == 0) return Status::Corruption("key split across two leaves");
        continue;
      }
      prev = key;
      ++keys_seen;
    }
  }
  if (keys_seen != key_count_) {
    return Status::Corruption("key count drift");
  }
  if (entries_seen != entry_count_) {
    return Status::Corruption("entry count drift");
  }
  return Status::Ok();
}

}  // namespace aib
