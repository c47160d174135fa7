#ifndef AIB_SHARD_SHARD_H_
#define AIB_SHARD_SHARD_H_

#include <memory>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <utility>

#include "service/query_service.h"
#include "workload/database.h"

namespace aib {

/// Per-shard provisioning: each shard node gets its own database (disk,
/// buffer pool, Index Buffer Space, executor, metrics) and its own query
/// service (admission queue, worker pool) — shared-nothing by
/// construction, so one shard's adaptive control loop never observes
/// another's traffic.
struct ShardOptions {
  DatabaseOptions db;
  QueryServiceOptions service;
};

/// One shard node: a Database plus the QueryService standing over it. The
/// adaptive state (Index Buffers, page counters, C[p] coverage, LRU-K
/// history) is entirely local — the paper's Algorithms 1/2 run unchanged
/// per shard, which is what keeps the scatter-gather layer a pure
/// routing/merging concern.
///
/// Restart: Restart() tears the node down and rebuilds it from its own
/// durable state (pages + schema + index definitions via the catalog
/// snapshot machinery, round-tripped through memory). The Index Buffer
/// Space comes back *empty* — the buffer is recovery-free (§VII), so every
/// buffer starts with C[p] from its index build's walk and re-adapts from
/// the first indexing scans; LRU-K history and tuner state restart from
/// zero too.
/// Answers keep exactly their rids because heap placement is durable; only
/// their order, which puts buffer matches first, follows the buffer.
/// Callers coordinate in-flight traffic through restart_latch(): request
/// paths hold it shared for as long as they use service()/db() pointers,
/// and Restart() takes it exclusively while it swaps them.
class Shard {
 public:
  Shard(size_t id, Schema schema, const ShardOptions& options)
      : id_(id),
        options_(options),
        db_(std::make_unique<Database>(std::move(schema), options.db,
                                       "shard" + std::to_string(id))),
        service_(std::make_unique<QueryService>(db_->executor(),
                                                options.service)) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  ~Shard() {
    // The service joins its workers before the database they execute
    // against goes away.
    service_->Shutdown();
  }

  /// Tears down and rebuilds the node from its durable state. Joins the
  /// old service's workers, snapshots the old database's pages, metadata
  /// and index definitions to an in-memory stream, and stands up a fresh
  /// Database + QueryService over the reloaded catalog. Metrics, the Index
  /// Buffer Space, LRU-K history and tuner state restart from zero.
  Status Restart() {
    std::unique_lock<std::shared_mutex> lock(restart_latch_);
    // Shutdown must precede the snapshot: stragglers that no longer hold
    // the latch (hedged losers, abandoned futures) only quiesce when the
    // service joins its workers, and a select still mutates adaptive
    // state.
    service_->Shutdown();
    const auto revive = [&](const Status& status) {
      // A failed snapshot/reload must not leave the node half-torn-down:
      // the old database is untouched, so stand a fresh service back over
      // it and surface the error with the shard still serving.
      service_ =
          std::make_unique<QueryService>(db_->executor(), options_.service);
      return status;
    };
    std::stringstream snapshot(std::ios::in | std::ios::out |
                               std::ios::binary);
    const Status saved = db_->catalog().SaveSnapshotTo(snapshot);
    if (!saved.ok()) return revive(saved);
    Result<std::unique_ptr<Catalog>> catalog = Catalog::LoadSnapshotFrom(
        snapshot, options_.db);
    if (!catalog.ok()) return revive(catalog.status());
    service_.reset();
    db_ = std::make_unique<Database>(std::move(catalog).value(),
                                     "shard" + std::to_string(id_));
    service_ =
        std::make_unique<QueryService>(db_->executor(), options_.service);
    return Status::Ok();
  }

  size_t id() const { return id_; }
  Database& db() { return *db_; }
  const Database& db() const { return *db_; }
  QueryService& service() { return *service_; }
  Metrics& metrics() { return db_->metrics(); }
  const Metrics& metrics() const {
    return const_cast<Database&>(*db_).metrics();
  }

  /// Shared by request paths for the duration of any service()/db() use;
  /// exclusive in Restart() while the pointers swap.
  std::shared_mutex& restart_latch() const { return restart_latch_; }

 private:
  size_t id_;
  ShardOptions options_;
  mutable std::shared_mutex restart_latch_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueryService> service_;
};

}  // namespace aib

#endif  // AIB_SHARD_SHARD_H_
