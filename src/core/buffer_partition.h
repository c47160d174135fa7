#ifndef AIB_CORE_BUFFER_PARTITION_H_
#define AIB_CORE_BUFFER_PARTITION_H_

#include <map>
#include <memory>
#include <vector>

#include "btree/index_structure.h"
#include "common/types.h"

namespace aib {

class ColdRun;

/// One partition of an Index Buffer (§IV). Partitions divide the table into
/// disjoint ranges of P pages (partition id = page_number / P), so that
/// every index entry referencing a page lives in exactly one partition and
/// whole partitions can be discarded in O(1) benefit bookkeeping.
///
/// Each partition owns its own index structure — this is the "partitioned
/// B*-tree" of the paper: dropping a partition discards its tree wholesale.
/// The structure is the partition's storage format, and so its tier: a hot
/// partition holds a mutable structure of the buffer's kind, a demoted one
/// (see Demoted) a compacted, read-optimized ColdRun. Everything else —
/// the page → entry-count map, probes, DML patches — is the same for both.
class BufferPartition {
 public:
  /// A hot partition over an empty structure of `kind`.
  BufferPartition(size_t id, IndexStructureKind kind);

  /// Demotion: a cold copy of `hot` — its entries compacted into a ColdRun
  /// (stable by key, so probes keep the hot tree's order), its page map
  /// unchanged.
  static std::unique_ptr<BufferPartition> Demoted(const BufferPartition& hot);

  size_t id() const { return id_; }

  /// The run of a demoted partition; null for a hot one.
  const ColdRun* cold_run() const { return cold_run_; }

  /// Adds an entry for a tuple on `page`. Registers the page as covered.
  void AddEntry(size_t page, Value value, const Rid& rid);

  /// Removes one entry; returns false if absent. The page stays covered
  /// even if its entry count drops to zero (all its unindexed tuples were
  /// deleted — it is still fully indexed).
  bool RemoveEntry(size_t page, Value value, const Rid& rid);

  /// Registers `page` as covered without adding entries (a page whose
  /// unindexed tuples all matched the partial index already).
  void CoverPage(size_t page);

  /// Sizes the underlying structure for `expected_entries` further inserts
  /// (advisory; see IndexStructure::Reserve).
  void Reserve(size_t expected_entries) { structure_->Reserve(expected_entries); }

  bool CoversPage(size_t page) const {
    return page_entries_.find(page) != page_entries_.end();
  }

  void Lookup(Value value, std::vector<Rid>* out) const {
    structure_->Lookup(value, out);
  }

  void Scan(Value lo, Value hi,
            const std::function<void(Value, const Rid&)>& fn) const {
    structure_->Scan(lo, hi, fn);
  }

  void ForEachEntry(const std::function<void(Value, const Rid&)>& fn) const {
    structure_->ForEachEntry(fn);
  }

  /// n_p: total entries in this partition.
  size_t EntryCount() const { return structure_->EntryCount(); }

  /// X_p: number of pages covered by this partition.
  size_t CoveredPageCount() const { return page_entries_.size(); }

  /// b_p = X_p / T_B for the owning buffer's mean access interval.
  double Benefit(double mean_interval) const {
    return static_cast<double>(CoveredPageCount()) / mean_interval;
  }

  /// page -> current entry count; consumed when the partition is dropped to
  /// restore the page counters.
  const std::map<size_t, size_t>& page_entries() const {
    return page_entries_;
  }

  /// Read view of the underlying structure.
  const IndexStructure& structure() const { return *structure_; }

  /// Merges `older`, a demoted sibling of the same id, into this partition
  /// (promotion into a hot sibling, or demotion onto a cold one). `older`
  /// holds the earlier epoch, so its postings precede this partition's at
  /// equal keys — the order one never-demoted partition would hold — and
  /// its page → entry-count map adds in (the siblings cover disjoint
  /// pages).
  void AbsorbOlder(const BufferPartition& older);

  size_t ApproxBytes() const { return structure_->ApproxBytes(); }

 private:
  BufferPartition(size_t id, std::unique_ptr<ColdRun> run);

  size_t id_;
  std::unique_ptr<IndexStructure> structure_;
  /// structure_ seen as a run when the partition is demoted; else null.
  ColdRun* cold_run_ = nullptr;
  std::map<size_t, size_t> page_entries_;
};

}  // namespace aib

#endif  // AIB_CORE_BUFFER_PARTITION_H_
