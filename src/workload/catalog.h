#ifndef AIB_WORKLOAD_CATALOG_H_
#define AIB_WORKLOAD_CATALOG_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/buffer_space.h"
#include "core/maintenance.h"
#include "exec/executor.h"
#include "index/index_tuner.h"
#include "index/partial_index.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/table.h"

namespace aib {

struct CatalogOptions {
  uint32_t page_size = kDefaultPageSize;
  /// Frames in the page buffer pool shared by all tables.
  size_t buffer_pool_pages = 1 << 16;
  /// See HeapFileOptions; applies to every table created in this catalog.
  uint16_t max_tuples_per_page = 0;
  /// One Index Buffer Space shared by every partial index of every table —
  /// "it is insignificant for the separation of Index Buffers whether the
  /// columns are in the same table or not" (§IV).
  BufferSpaceOptions space;
  /// Default options for lazily created Index Buffers.
  IndexBufferOptions buffer;
  bool enable_index_buffer = true;
  CostModelOptions cost;
  /// Replacement policy of the shared buffer pool (segmented = scan-
  /// resistant; see storage/buffer_pool.h).
  EvictionPolicy eviction_policy = EvictionPolicy::kSegmented;
};

/// A multi-table catalog: all tables share one disk, one page buffer pool,
/// one metrics registry, and — crucially — one Index Buffer Space, so
/// buffers of partial indexes on different tables compete for the same
/// entry budget under the §IV benefit model.
///
/// `Database` (database.h) is the single-table convenience facade over a
/// private Catalog.
class Catalog {
 public:
  explicit Catalog(CatalogOptions options = {});

  const CatalogOptions& options() const { return options_; }
  Metrics& metrics() { return metrics_; }
  IndexBufferSpace* space() { return space_.get(); }
  BufferPool& buffer_pool() { return *pool_; }
  /// The shared disk manager — exposed so tools/tests can arm its
  /// FaultInjector (chaos mode).
  DiskManager& disk() { return *disk_; }

  /// Creates an empty table. AlreadyExists if the name is taken.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Null if no table has that name.
  Table* GetTable(const std::string& name) const;

  /// Names of all tables, in creation order.
  std::vector<std::string> TableNames() const;

  /// Insert without maintenance — initial loading before index creation.
  Result<Rid> LoadTuple(Table* table, const Tuple& tuple) {
    return table->Insert(tuple);
  }

  // --- Indexing -------------------------------------------------------------

  Status CreatePartialIndex(Table* table, ColumnId column,
                            ValueCoverage coverage,
                            IndexStructureKind structure =
                                IndexStructureKind::kBTree);
  PartialIndex* GetIndex(const Table* table, ColumnId column) const;
  IndexBuffer* GetBuffer(const Table* table, ColumnId column) const;

  Status AttachTuner(Table* table, ColumnId column,
                     IndexTunerOptions options);
  IndexTuner* GetTuner(const Table* table, ColumnId column) const;

  /// The executor of `table` (null for unknown tables). Exposed so a
  /// QueryService can be stood up over a catalog-managed table; see
  /// Executor's thread-safety contract for what concurrent use permits.
  Executor* executor(const Table* table) const;

  // --- Statements -----------------------------------------------------------

  /// Runs `statement` on `table` through its executor's ExecuteStatement —
  /// the same path a QueryService takes, so reads and Table I maintenance
  /// have exactly one implementation. After a point select, steps the
  /// column's tuner if one is attached; range selects and DML never step
  /// it. `control` (optional) carries a deadline/cancellation token
  /// checked cooperatively during execution.
  Result<StatementResult> ExecuteStatement(
      Table* table, const Statement& statement,
      const QueryControl* control = nullptr);

  /// Rids of all tuples with `value` in `column` of `table` (full scan).
  std::vector<Rid> FindRids(const Table* table, ColumnId column,
                            Value value) const;

  // --- Snapshots (workload/snapshot.cc) -------------------------------------
  //
  // A snapshot persists the durable state only: raw pages, table/schema
  // metadata, heap page lists and partial-index definitions. The Index
  // Buffers are not saved: after LoadSnapshot each one starts empty with
  // C[p] from the index build's walk, exactly as a freshly created index
  // does, and re-adapts from the first indexing scans — the buffer is
  // "memory-based and without expenses for crash recovery" (§VII). LRU-K
  // history and tuner state are ephemeral too.

  /// Writes the catalog's durable state to `path`. Flushes the buffer
  /// pool first.
  Status SaveSnapshot(const std::string& path);

  /// Stream variant of SaveSnapshot — what shard restarts use: the
  /// snapshot round-trips through an in-memory stream, no filesystem
  /// involved.
  Status SaveSnapshotTo(std::ostream& out);

  /// Reconstructs a catalog from `path` under the given runtime options
  /// (budgets/costs are runtime configuration, not durable state).
  static Result<std::unique_ptr<Catalog>> LoadSnapshot(
      const std::string& path, CatalogOptions options);

  /// Stream variant of LoadSnapshot.
  static Result<std::unique_ptr<Catalog>> LoadSnapshotFrom(
      std::istream& in, CatalogOptions options);

 private:
  struct TableState {
    std::unique_ptr<Table> table;
    std::unique_ptr<Executor> executor;
    std::map<ColumnId, std::unique_ptr<PartialIndex>> indexes;
    std::map<ColumnId, std::unique_ptr<IndexTuner>> tuners;
  };

  TableState* StateOf(const Table* table) const;

  CatalogOptions options_;
  Metrics metrics_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<IndexBufferSpace> space_;
  /// Keyed by table name; pointers handed out remain stable.
  std::vector<std::pair<std::string, std::unique_ptr<TableState>>> tables_;
};

}  // namespace aib

#endif  // AIB_WORKLOAD_CATALOG_H_
