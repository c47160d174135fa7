#include "workload/catalog.h"

#include <mutex>
#include <shared_mutex>

#include "exec/statement.h"

namespace aib {

Catalog::Catalog(CatalogOptions options) : options_(options) {
  disk_ = std::make_unique<DiskManager>(options_.page_size, &metrics_);
  BufferPoolOptions pool_options;
  pool_options.policy = options_.eviction_policy;
  pool_ = std::make_unique<BufferPool>(disk_.get(),
                                       options_.buffer_pool_pages, &metrics_,
                                       pool_options);
  if (options_.enable_index_buffer) {
    space_ = std::make_unique<IndexBufferSpace>(options_.space, &metrics_);
  }
}

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  if (GetTable(name) != nullptr) {
    return Status::AlreadyExists("table " + name + " exists");
  }
  auto state = std::make_unique<TableState>();
  HeapFileOptions heap_options;
  heap_options.max_tuples_per_page = options_.max_tuples_per_page;
  state->table = std::make_unique<Table>(name, std::move(schema), disk_.get(),
                                         pool_.get(), heap_options, &metrics_);
  state->executor = std::make_unique<Executor>(
      state->table.get(), space_.get(), options_.cost, &metrics_);
  state->executor->SetBufferOptions(options_.buffer);
  Table* raw = state->table.get();
  tables_.emplace_back(name, std::move(state));
  return raw;
}

Table* Catalog::GetTable(const std::string& name) const {
  for (const auto& [table_name, state] : tables_) {
    if (table_name == name) return state->table.get();
  }
  return nullptr;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, state] : tables_) names.push_back(name);
  return names;
}

Catalog::TableState* Catalog::StateOf(const Table* table) const {
  for (const auto& [name, state] : tables_) {
    if (state->table.get() == table) return state.get();
  }
  return nullptr;
}

Executor* Catalog::executor(const Table* table) const {
  TableState* state = StateOf(table);
  return state == nullptr ? nullptr : state->executor.get();
}

Status Catalog::CreatePartialIndex(Table* table, ColumnId column,
                                   ValueCoverage coverage,
                                   IndexStructureKind structure) {
  TableState* state = StateOf(table);
  if (state == nullptr) return Status::InvalidArgument("unknown table");
  if (state->indexes.contains(column)) {
    return Status::AlreadyExists("partial index on this column exists");
  }
  auto index = std::make_unique<PartialIndex>(table, column,
                                              std::move(coverage), structure,
                                              &metrics_);
  AIB_RETURN_IF_ERROR(index->Build());
  state->executor->RegisterIndex(index.get());
  if (space_ != nullptr) {
    AIB_RETURN_IF_ERROR(
        space_->CreateBuffer(index.get(), options_.buffer).status());
  }
  state->indexes.emplace(column, std::move(index));
  return Status::Ok();
}

PartialIndex* Catalog::GetIndex(const Table* table, ColumnId column) const {
  TableState* state = StateOf(table);
  if (state == nullptr) return nullptr;
  auto it = state->indexes.find(column);
  return it == state->indexes.end() ? nullptr : it->second.get();
}

IndexBuffer* Catalog::GetBuffer(const Table* table, ColumnId column) const {
  if (space_ == nullptr) return nullptr;
  PartialIndex* index = GetIndex(table, column);
  return index == nullptr ? nullptr : space_->GetBuffer(index);
}

Status Catalog::AttachTuner(Table* table, ColumnId column,
                            IndexTunerOptions options) {
  TableState* state = StateOf(table);
  if (state == nullptr) return Status::InvalidArgument("unknown table");
  PartialIndex* index = GetIndex(table, column);
  if (index == nullptr) {
    return Status::NotFound("no partial index on this column");
  }
  if (state->tuners.contains(column)) {
    return Status::AlreadyExists("tuner on this column exists");
  }
  auto tuner = std::make_unique<IndexTuner>(
      index, options,
      [this, table, column](Value v) { return FindRids(table, column, v); });
  if (space_ != nullptr) {
    IndexBuffer* buffer = space_->GetBuffer(index);
    IndexBufferSpace* space = space_.get();
    tuner->SetAdaptCallback([table, buffer, space](
                                Value value, const std::vector<Rid>& rids,
                                bool added) {
      std::vector<size_t> pages;
      pages.reserve(rids.size());
      for (const Rid& rid : rids) {
        Result<size_t> page = table->PageNumberOf(rid);
        pages.push_back(page.ok() ? page.value() : 0);
      }
      // No latch here: adaptation fires from Catalog::ExecuteStatement,
      // which holds the executor's statement membrane *exclusively* — the
      // one quiesce point in the partition-granular scheme — so no
      // statement (scan, probe, or DML) is in flight while the partial
      // index's coverage and the buffer/C[p] adjustments change together.
      (void)space;
      // Only fails on a size mismatch, impossible by construction here.
      (void)ApplyAdaptation(buffer, value, rids, pages, added);
    });
  }
  state->tuners.emplace(column, std::move(tuner));
  return Status::Ok();
}

IndexTuner* Catalog::GetTuner(const Table* table, ColumnId column) const {
  TableState* state = StateOf(table);
  if (state == nullptr) return nullptr;
  auto it = state->tuners.find(column);
  return it == state->tuners.end() ? nullptr : it->second.get();
}

Result<StatementResult> Catalog::ExecuteStatement(
    Table* table, const Statement& statement, const QueryControl* control) {
  TableState* state = StateOf(table);
  if (state == nullptr) return Status::InvalidArgument("unknown table");
  AIB_ASSIGN_OR_RETURN(StatementResult result,
                       state->executor->ExecuteStatement(statement, control));
  const Query& query = statement.query;
  if (statement.kind == StatementKind::kSelect && query.IsPoint()) {
    if (IndexTuner* tuner = GetTuner(table, query.column); tuner != nullptr) {
      // Quiesce point: tuner adaptation mutates partial-index *coverage*,
      // which optimistic probes read latch-free, so it runs with the
      // statement membrane held exclusively — the only exclusive
      // acquisition in the production latch scheme. The executor released
      // its shared hold before returning.
      std::unique_lock<std::shared_mutex> quiesce(
          state->executor->statement_latch());
      tuner->OnQuery(query.lo);
    }
  }
  return result;
}

std::vector<Rid> Catalog::FindRids(const Table* table, ColumnId column,
                                   Value value) const {
  std::vector<Rid> rids;
  (void)table->heap().ForEachTuple([&](const Rid& rid, const Tuple& tuple) {
    if (tuple.IntValue(table->schema(), column) == value) {
      rids.push_back(rid);
    }
  });
  return rids;
}

}  // namespace aib
