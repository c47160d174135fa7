#include "workload/database.h"

#include <cassert>

namespace aib {

CatalogOptions Database::ToCatalogOptions(const DatabaseOptions& options) {
  CatalogOptions catalog_options;
  catalog_options.page_size = options.page_size;
  catalog_options.buffer_pool_pages = options.buffer_pool_pages;
  catalog_options.max_tuples_per_page = options.max_tuples_per_page;
  catalog_options.space = options.space;
  catalog_options.buffer = options.buffer;
  catalog_options.enable_index_buffer = options.enable_index_buffer;
  catalog_options.cost = options.cost;
  catalog_options.eviction_policy = options.eviction_policy;
  return catalog_options;
}

Database::Database(Schema schema, DatabaseOptions options,
                   std::string table_name)
    : options_(options),
      catalog_(std::make_unique<Catalog>(ToCatalogOptions(options))) {
  Result<Table*> table =
      catalog_->CreateTable(std::move(table_name), std::move(schema));
  // The catalog is empty at this point; creation cannot collide.
  assert(table.ok());
  table_ = table.value();
}

Database::Database(std::unique_ptr<Catalog> catalog, DatabaseOptions options,
                   const std::string& table_name)
    : options_(options), catalog_(std::move(catalog)) {
  table_ = catalog_->GetTable(table_name);
  // Adopting a snapshot that lacks the table is a programming error, not a
  // runtime condition — restarts reload the snapshot they just saved.
  assert(table_ != nullptr);
}

}  // namespace aib
