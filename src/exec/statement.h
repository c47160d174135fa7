#ifndef AIB_EXEC_STATEMENT_H_
#define AIB_EXEC_STATEMENT_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "exec/query.h"
#include "storage/tuple.h"

namespace aib {

/// The statement kinds the pipeline executes. Selects are the read path;
/// the three DML kinds are the write path, each triggering the Table I
/// maintenance matrix (partial-index upkeep, Index Buffer upkeep, C[p]
/// adjustment) inside its physical operator.
enum class StatementKind { kSelect, kInsert, kUpdate, kDelete };

inline const char* StatementKindName(StatementKind kind) {
  switch (kind) {
    case StatementKind::kSelect:
      return "Select";
    case StatementKind::kInsert:
      return "Insert";
    case StatementKind::kUpdate:
      return "Update";
    case StatementKind::kDelete:
      return "Delete";
  }
  return "Unknown";
}

/// One request flowing through the statement pipeline (service → planner →
/// operators → maintenance). A tagged union by convention: `query` is
/// meaningful for selects, `tuple` for inserts and updates (the full new
/// tuple image), `target` for updates and deletes.
struct Statement {
  StatementKind kind = StatementKind::kSelect;
  Query query;
  Tuple tuple;
  Rid target;

  static Statement Select(Query query) {
    Statement statement;
    statement.kind = StatementKind::kSelect;
    statement.query = std::move(query);
    return statement;
  }

  static Statement Insert(Tuple tuple) {
    Statement statement;
    statement.kind = StatementKind::kInsert;
    statement.tuple = std::move(tuple);
    return statement;
  }

  static Statement Update(const Rid& target, Tuple tuple) {
    Statement statement;
    statement.kind = StatementKind::kUpdate;
    statement.target = target;
    statement.tuple = std::move(tuple);
    return statement;
  }

  static Statement Delete(const Rid& target) {
    Statement statement;
    statement.kind = StatementKind::kDelete;
    statement.target = target;
    return statement;
  }

  bool IsDml() const { return kind != StatementKind::kSelect; }
};

/// Result of one statement, the one result type of every layer. For
/// selects, `rids` are the matches and `rows_affected` is zero; for DML,
/// `rids` holds the affected rid (the new rid for inserts and updates — an
/// update that relocated the tuple reports its post-move rid — the removed
/// rid for deletes) and `rows_affected` the row count flowing up through the
/// batch interface. PhysicalPlan::Run fills both from the plan's statement
/// kind, so no layer converts results.
struct StatementResult {
  std::vector<Rid> rids;
  size_t rows_affected = 0;
  QueryStats stats;
};

/// The same type under its read-path name.
using QueryResult = StatementResult;

}  // namespace aib

#endif  // AIB_EXEC_STATEMENT_H_
