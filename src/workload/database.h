#ifndef AIB_WORKLOAD_DATABASE_H_
#define AIB_WORKLOAD_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "workload/catalog.h"

namespace aib {

/// Options of the single-table facade: a Database is a one-table Catalog,
/// so it takes the catalog's options as they are.
using DatabaseOptions = CatalogOptions;

/// The single-table convenience facade: one table, its partial secondary
/// indexes, optional Index Buffer Space, optional online tuners, and the
/// executor — wired together with full DML maintenance (Table I) and
/// adaptation propagation.
///
/// Internally a Catalog with exactly one table; multi-table workloads
/// (Index Buffers of different tables competing for one space, §IV) use
/// Catalog directly.
class Database {
 public:
  explicit Database(Schema schema, DatabaseOptions options = {},
                    std::string table_name = "t");

  /// Adopts a catalog restored from a snapshot (shard restart): the
  /// catalog must already contain `table_name`.
  Database(std::unique_ptr<Catalog> catalog, const std::string& table_name);

  Table& table() { return *table_; }
  const Table& table() const { return *table_; }
  Metrics& metrics() { return catalog_->metrics(); }
  IndexBufferSpace* space() { return catalog_->space(); }
  BufferPool& buffer_pool() { return catalog_->buffer_pool(); }
  Catalog& catalog() { return *catalog_; }
  const DatabaseOptions& options() const { return catalog_->options(); }

  /// Inserts without maintenance — for initial loading *before* indexes
  /// are created (indexes Build() from scratch anyway).
  Result<Rid> LoadTuple(const Tuple& tuple) {
    return catalog_->LoadTuple(table_, tuple);
  }

  // --- Indexing -------------------------------------------------------------

  /// Creates and builds a partial index on `column`; creates its Index
  /// Buffer (with initialized page counters) when the space is enabled.
  Status CreatePartialIndex(ColumnId column, ValueCoverage coverage,
                            IndexStructureKind structure =
                                IndexStructureKind::kBTree) {
    return catalog_->CreatePartialIndex(table_, column, std::move(coverage),
                                       structure);
  }

  PartialIndex* GetIndex(ColumnId column) const {
    return catalog_->GetIndex(table_, column);
  }
  IndexBuffer* GetBuffer(ColumnId column) const {
    return catalog_->GetBuffer(table_, column);
  }

  /// Attaches an online tuner (Fig. 1 mechanism) to `column`'s partial
  /// index; adaptation scans and buffer consistency hooks are wired
  /// automatically.
  Status AttachTuner(ColumnId column, IndexTunerOptions options) {
    return catalog_->AttachTuner(table_, column, options);
  }
  IndexTuner* GetTuner(ColumnId column) const {
    return catalog_->GetTuner(table_, column);
  }

  /// The table's executor, for standing up a QueryService over this
  /// database (service/query_service.h).
  Executor* executor() const { return catalog_->executor(table_); }

  // --- Statements -----------------------------------------------------------

  /// Runs `statement` through Catalog::ExecuteStatement: the executor's
  /// single path for reads and DML (full Table I maintenance), plus a
  /// tuner step after point selects on a tuned column.
  Result<StatementResult> ExecuteStatement(const Statement& statement) {
    return catalog_->ExecuteStatement(table_, statement);
  }

  /// Rids of all tuples with `value` in `column` (full scan).
  std::vector<Rid> FindRids(ColumnId column, Value value) const {
    return catalog_->FindRids(table_, column, value);
  }

 private:
  std::unique_ptr<Catalog> catalog_;
  Table* table_;
};

}  // namespace aib

#endif  // AIB_WORKLOAD_DATABASE_H_
