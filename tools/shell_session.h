#ifndef AIB_TOOLS_SHELL_SESSION_H_
#define AIB_TOOLS_SHELL_SESSION_H_

#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/query_control.h"
#include "shard/sharded_database.h"
#include "workload/catalog.h"

namespace aib::tools {

/// The command interpreter behind the `aib_shell` binary: a line-oriented
/// front end over the Catalog API, usable interactively, from script
/// files, and from tests.
///
/// Commands (one per line, `#` starts a comment):
///   config space_entries=N imax=N partition_pages=N tuples_per_page=N
///          pool_pages=N   — (re)creates the catalog; must come first
///                           (a pool smaller than the table keeps reads
///                           hitting the disk path, where faults inject)
///   create_table NAME INTCOLS
///   load_random NAME COUNT LO HI [SEED]
///   create_index NAME COLUMN LO HI [btree|hash]
///   attach_tuner NAME COLUMN [WINDOW THRESHOLD CAPACITY]
///   query NAME COLUMN VALUE [COLUMN LO HI ...]
///   range NAME COLUMN LO HI [COLUMN LO HI ...]
///   explain NAME COLUMN LO HI [COLUMN LO HI ...]
///                         — executes and prints the physical plan tree
///                           with per-operator statistics; trailing
///                           COLUMN LO HI triplets add residual conjuncts
///   run NAME COLUMN COUNT LO HI [SEED]   — COUNT random point queries
///   insert NAME V1 [V2 ...]              — one tuple (payload auto); runs
///                           through the statement pipeline with full
///                           Table I maintenance, like all DML below
///   update NAME PAGE SLOT V1 [V2 ...]    — replace the tuple at rid
///                           (PAGE,SLOT); prints the new rid (it moves
///                           when the new image no longer fits the slot)
///   delete NAME PAGE SLOT                — delete the tuple at rid
///   fault arm SEED RATE [CORRUPT_FRACTION [LATENCY_RATE [LATENCY_TICKS]]]
///                         — arms the disk FaultInjector: RATE applies to
///                           both reads and writes; `config` and
///                           snapshot_load rebuild the catalog and disarm
///   fault off             — disarms the injector
///   deadline MS           — per-query deadline for query/range/run
///                           (0 clears)
///   buffers                              — Index Buffer Space summary
///   stats                                — metrics registry dump plus a
///                                          robustness summary line
///   consistency NAME                     — validate buffers against NAME
///   snapshot_save PATH
///   snapshot_load PATH
///   echo TEXT...
///
/// Sharded mode (src/shard/):
///   shards N [hash|range] [COLUMN]  — subsequent create_table builds an
///                           N-shard ShardedDatabase routed on COLUMN
///                           (default 0) instead of a catalog table;
///                           existing sharded tables are dropped
///   shards off            — back to single-node catalog mode
///   In sharded mode query/range/run/insert/load_random/create_index/
///   explain/fault/stats/buffers/consistency/attach_tuner/deadline work
///   against the shard fleet (explain renders the scatter legs; stats
///   prints per-shard lines plus the fleet rollup; fault arms every
///   shard's injector with SEED+shard; update/delete take a SHARD arg:
///   update NAME SHARD PAGE SLOT V1 [V2 ...]). Snapshots are
///   single-node-only.
class ShellSession {
 public:
  explicit ShellSession(std::ostream& out);

  /// Executes one command line. Errors are reported to the output stream;
  /// the return value is false only for unrecoverable input (used by tests
  /// to assert acceptance).
  bool ExecuteLine(const std::string& line);

  /// Reads and executes lines until EOF. Returns the number of failed
  /// commands.
  size_t Run(std::istream& in);

  Catalog* catalog() { return catalog_.get(); }

  bool sharded() const { return shard_count_ > 0; }
  ShardedDatabase* sharded_table(const std::string& name) {
    auto it = sharded_.find(name);
    return it == sharded_.end() ? nullptr : it->second.get();
  }

 private:
  bool Fail(const std::string& message);

  /// Control for one query: carries the session deadline when one is set.
  QueryControl MakeControl() const;

  /// Executes one query with the session deadline and the same whole-query
  /// retry policy as the QueryService (retries transients and corruption,
  /// never Timeout/Cancelled).
  Result<StatementResult> ExecuteQuery(Table* table, const Query& query);

  /// Executes a statement on the fleet `db` with the session deadline.
  Result<ShardResult> ExecuteSharded(ShardedDatabase* db,
                                     const ShardStatement& statement);

  /// Handles the commands that behave differently against a shard fleet.
  /// Only called in sharded mode.
  bool ExecuteShardedLine(const std::vector<std::string>& tokens);

  std::ostream& out_;
  std::unique_ptr<Catalog> catalog_;
  /// Session deadline applied to each query/range/run query; zero = none.
  std::chrono::milliseconds deadline_{0};

  /// 0 = single-node catalog mode; > 0 = sharded mode with this many
  /// shards per created table.
  size_t shard_count_ = 0;
  ShardingPolicy shard_policy_ = ShardingPolicy::kHash;
  ColumnId routing_column_ = 0;
  std::map<std::string, std::unique_ptr<ShardedDatabase>> sharded_;
};

}  // namespace aib::tools

#endif  // AIB_TOOLS_SHELL_SESSION_H_
