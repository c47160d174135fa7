#include "workload/database.h"

#include <cassert>

namespace aib {

Database::Database(Schema schema, DatabaseOptions options,
                   std::string table_name)
    : catalog_(std::make_unique<Catalog>(options)) {
  Result<Table*> table =
      catalog_->CreateTable(std::move(table_name), std::move(schema));
  // The catalog is empty at this point; creation cannot collide.
  assert(table.ok());
  table_ = table.value();
}

Database::Database(std::unique_ptr<Catalog> catalog,
                   const std::string& table_name)
    : catalog_(std::move(catalog)) {
  table_ = catalog_->GetTable(table_name);
  // Adopting a snapshot that lacks the table is a programming error, not a
  // runtime condition — restarts reload the snapshot they just saved.
  assert(table_ != nullptr);
}

}  // namespace aib
