#include "workload/experiment.h"

#include <string>

namespace aib {

Result<std::unique_ptr<Database>> BuildPaperDatabase(
    const PaperSetupOptions& options) {
  Schema schema = Schema::PaperSchema(options.int_columns,
                                      options.payload_max);
  auto db = std::make_unique<Database>(std::move(schema), options.db);

  Rng rng(options.seed);
  const Schema& s = db->table().schema();
  const std::vector<ColumnId> int_columns = s.IntColumnIds();
  for (size_t i = 0; i < options.num_tuples; ++i) {
    std::vector<Value> ints;
    ints.reserve(int_columns.size());
    for (size_t c = 0; c < int_columns.size(); ++c) {
      ints.push_back(static_cast<Value>(
          rng.UniformInt(options.value_min, options.value_max)));
    }
    const size_t payload_len = static_cast<size_t>(
        rng.UniformInt(options.payload_min, options.payload_max));
    std::vector<std::string> strings{std::string(payload_len, 'x')};
    AIB_RETURN_IF_ERROR(
        db->LoadTuple(Tuple(std::move(ints), std::move(strings))).status());
  }

  if (options.create_indexes) {
    for (ColumnId column : int_columns) {
      AIB_RETURN_IF_ERROR(db->CreatePartialIndex(
          column,
          ValueCoverage::Range(options.covered_lo, options.covered_hi)));
    }
  }
  return db;
}

Result<std::vector<SeriesPoint>> RunWorkload(Database* db,
                                             WorkloadGenerator* generator) {
  std::vector<SeriesPoint> series;
  series.reserve(generator->TotalQueries());
  const std::vector<ColumnId> int_columns =
      db->table().schema().IntColumnIds();
  size_t query_index = 0;
  while (true) {
    std::optional<Query> query = generator->Next();
    if (!query.has_value()) break;
    AIB_ASSIGN_OR_RETURN(StatementResult result,
                         db->ExecuteStatement(Statement::Select(*query)));
    SeriesPoint point;
    point.query_index = query_index++;
    point.column = query->column;
    point.value = query->lo;
    point.stats = result.stats;
    point.buffer_entries.reserve(int_columns.size());
    for (ColumnId column : int_columns) {
      IndexBuffer* buffer = db->GetBuffer(column);
      point.buffer_entries.push_back(
          buffer == nullptr ? 0 : buffer->TotalEntries());
    }
    series.push_back(std::move(point));
  }
  return series;
}

}  // namespace aib
