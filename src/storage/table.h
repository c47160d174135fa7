#ifndef AIB_STORAGE_TABLE_H_
#define AIB_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/partition_latch.h"
#include "common/result.h"
#include "storage/heap_file.h"
#include "storage/schema.h"

namespace aib {

/// A named table: schema + heap file + page-number bookkeeping.
///
/// Throughout the core library, a "page number" is the dense physical index
/// of a page within its table (0 .. PageCount()-1). Page counters (C[p]) and
/// Index Buffer partitions operate on page numbers, not on global PageIds.
///
/// Concurrency: the table owns the heap's page stripe latches
/// (page_latches(), keyed by page number) and the insert append mutex
/// (append_mutex()). Scans acquire every stripe shared for their duration;
/// DML acquires the stripes of the pages it mutates exclusively (ascending,
/// one batch); covered probes acquire the stripes of the pages they fetch
/// shared. Insert/relocating-Update additionally hold append_mutex() so
/// only one statement fills a reclaimed page or grows the tail at a time.
/// See docs/ALGORITHMS.md for the full latch order.
class Table {
 public:
  /// `metrics` (may be null) feeds the page-stripe latch contention
  /// counters; it does not change any data-path accounting.
  Table(std::string name, Schema schema, DiskManager* disk, BufferPool* pool,
        HeapFileOptions options = {}, Metrics* metrics = nullptr);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  HeapFile& heap() { return heap_; }
  const HeapFile& heap() const { return heap_; }

  size_t PageCount() const { return heap_.PageCount(); }
  size_t TupleCount() const { return heap_.TupleCount(); }

  Result<Rid> Insert(const Tuple& tuple) { return heap_.Insert(tuple); }
  Result<Tuple> Get(const Rid& rid) const { return heap_.Get(rid); }
  Status Delete(const Rid& rid) { return heap_.Delete(rid); }

  /// Dense page number of the page holding `rid`; InvalidArgument if the
  /// page does not belong to this table. Pure directory lookup — no page
  /// fetch, no fault-injector draws.
  Result<size_t> PageNumberOf(const Rid& rid) const {
    return heap_.PageIndexOf(rid.page_id);
  }

  /// Striped reader-writer latches over page numbers (stripe = page
  /// number % stripe_count). Const because latching is logically-const
  /// synchronization, not table mutation.
  PartitionLatchTable& page_latches() const { return page_latches_; }

  /// Serializes inserts: held (before any page stripes) by every statement
  /// that may insert, so the page it latches is where the insert lands.
  std::mutex& append_mutex() const { return append_mu_; }

 private:
  std::string name_;
  Schema schema_;
  HeapFile heap_;
  mutable PartitionLatchTable page_latches_;
  mutable std::mutex append_mu_;
};

}  // namespace aib

#endif  // AIB_STORAGE_TABLE_H_
