#include "shard/sharded_database.h"

#include <algorithm>
#include <chrono>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "exec/plan.h"

namespace aib {

namespace {

constexpr size_t kAdmissionAttempts = 50;

ShardResult ToShardResult(StatementResult result, size_t shard) {
  ShardResult out;
  out.rids.reserve(result.rids.size());
  for (const Rid& rid : result.rids) {
    out.rids.push_back(GlobalRid{static_cast<uint32_t>(shard), rid});
  }
  out.rows_affected = result.rows_affected;
  out.stats = result.stats;
  out.legs = 1;
  return out;
}

SubmitOptions ToSubmitOptions(const ShardSubmitOptions& submit) {
  SubmitOptions options;
  options.deadline = submit.deadline;
  options.cancel = submit.cancel;
  return options;
}

ShardFaultOptions FaultOptionsFor(const FleetToleranceOptions& tolerance) {
  ShardFaultOptions options;
  options.seed = tolerance.seed;
  return options;
}

CircuitBreakerOptions BreakerOptionsFor(const FleetToleranceOptions& tolerance) {
  CircuitBreakerOptions options = tolerance.breaker;
  options.seed ^= tolerance.seed;
  return options;
}

/// Decorrelates one statement's backoff jitter from its neighbours'
/// without burning the fleet seed's replayability (same seed + same
/// statement order = same draws).
uint64_t StatementBackoffSeed(uint64_t seed, uint64_t sequence) {
  return seed ^ ((sequence + 1) * 0x9E3779B97F4A7C15ULL);
}

}  // namespace

ShardedDatabase::ShardedDatabase(Schema schema, ShardedDatabaseOptions options)
    : options_(std::move(options)),
      router_(options_.router),
      faults_(router_.num_shards(), FaultOptionsFor(options_.tolerance),
              &router_metrics_),
      health_(router_.num_shards(), BreakerOptionsFor(options_.tolerance),
              &router_metrics_) {
  shards_.reserve(router_.num_shards());
  for (size_t i = 0; i < router_.num_shards(); ++i) {
    shards_.push_back(std::make_unique<Shard>(i, schema, options_.shard));
  }
}

ShardedDatabase::~ShardedDatabase() { Shutdown(); }

void ShardedDatabase::Shutdown() {
  // Revive first so no request stays parked inside a Hang admit while the
  // services it would dispatch to go away.
  for (size_t i = 0; i < shards_.size(); ++i) faults_.Revive(i);
  for (auto& shard : shards_) shard->service().Shutdown();
}

const Schema& ShardedDatabase::schema() const {
  return shards_.front()->db().table().schema();
}

Result<GlobalRid> ShardedDatabase::LoadTuple(const Tuple& tuple) {
  const size_t shard = router_.ShardForTuple(schema(), tuple);
  AIB_ASSIGN_OR_RETURN(Rid rid, shards_[shard]->db().LoadTuple(tuple));
  return GlobalRid{static_cast<uint32_t>(shard), rid};
}

Status ShardedDatabase::CreatePartialIndex(ColumnId column,
                                           ValueCoverage coverage,
                                           IndexStructureKind structure) {
  for (auto& shard : shards_) {
    AIB_RETURN_IF_ERROR(
        shard->db().CreatePartialIndex(column, coverage, structure));
  }
  return Status::Ok();
}

Result<Tuple> ShardedDatabase::FetchRow(const GlobalRid& grid) const {
  if (grid.shard >= shards_.size()) {
    return Status::InvalidArgument("rid addresses unknown shard");
  }
  std::shared_lock<std::shared_mutex> gate(
      shards_[grid.shard]->restart_latch());
  return shards_[grid.shard]->db().table().Get(grid.rid);
}

std::map<std::string, int64_t> ShardedDatabase::FleetCounters() const {
  Metrics fleet;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> gate(shard->restart_latch());
    fleet.MergeFrom(shard->metrics());
  }
  fleet.MergeFrom(router_metrics_);
  return fleet.counters();
}

Result<StatementResult> ShardedDatabase::RunOnShard(
    size_t shard, const Statement& statement,
    const ShardSubmitOptions& submit, size_t* retried) {
  // Pin the node across the whole dispatch so a concurrent warm restart
  // cannot swap the service out from under us.
  std::shared_lock<std::shared_mutex> gate(shards_[shard]->restart_latch());
  QueryService& service = shards_[shard]->service();
  const SubmitOptions options = ToSubmitOptions(submit);
  QueryControl control;
  if (submit.deadline.count() > 0) {
    control = QueryControl::WithDeadline(submit.deadline);
  }
  control.cancel = submit.cancel;
  Rng backoff_rng(StatementBackoffSeed(
      options_.tolerance.seed,
      statement_seq_.fetch_add(1, std::memory_order_relaxed)));

  Result<StatementResult> result =
      Result<StatementResult>(Status::Internal("statement not attempted"));
  size_t attempts = 0;
  for (size_t attempt = 0; attempt <= options_.max_leg_retries; ++attempt) {
    if (attempt > 0 && retried != nullptr) ++*retried;
    ++attempts;

    const ShardHealthTracker::Admit admit = health_.AdmitRequest(shard);
    if (admit == ShardHealthTracker::Admit::kFailFast) {
      return AnnotateShardStatus(
          Status::Unavailable("circuit breaker refused dispatch"), shard,
          attempts, &health_);
    }
    const bool probe = admit == ShardHealthTracker::Admit::kProbe;

    const Status injected = faults_.Admit(shard, &control);
    if (!injected.ok()) {
      // An injector refusal is the shard being down — it feeds the
      // breaker like a dispatched failure would (and must resolve a
      // probe slot). Cancelled is the caller's doing, not the shard's.
      if (probe || !injected.IsCancelled()) {
        health_.RecordFailure(shard, std::chrono::nanoseconds{0});
      }
      if (!injected.IsTransient() && !injected.IsCorruption()) {
        return AnnotateShardStatus(injected, shard, attempts, &health_);
      }
      result = Result<StatementResult>(injected);
      continue;
    }

    // Busy admission backs off with seeded jitter — the shard's queue
    // drains at its own pace; bounded so a wedged shard surfaces as Busy.
    Result<std::future<Result<StatementResult>>> future =
        Result<std::future<Result<StatementResult>>>(Status::Internal(""));
    for (size_t admission = 0; admission < kAdmissionAttempts; ++admission) {
      future = service.Submit(statement, options);
      if (future.ok() || !future.status().IsBusy()) break;
      const Status caller = control.Check();
      if (!caller.ok()) {
        // A claimed probe slot must resolve even when the caller's
        // deadline/cancel fires mid-backoff, or the breaker wedges in
        // HalfProbe until a restart.
        if (probe) health_.RecordFailure(shard, std::chrono::nanoseconds{0});
        return caller;
      }
      std::this_thread::sleep_for(JitteredBackoff(
          options_.tolerance.busy_backoff, admission, backoff_rng));
    }
    if (!future.ok()) {
      // A probe slot must resolve even when the refusal never reached the
      // shard; plain Busy exhaustion is load, not death, and stays out of
      // the breaker window.
      if (probe) health_.RecordFailure(shard, std::chrono::nanoseconds{0});
      if (!future.status().IsTransient()) {
        return AnnotateShardStatus(future.status(), shard, attempts,
                                   &health_);
      }
      result = Result<StatementResult>(future.status());
      continue;
    }

    const auto dispatched = std::chrono::steady_clock::now();
    result = std::move(future).value().get();
    const auto latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - dispatched);
    if (result.ok()) {
      health_.RecordSuccess(shard, latency);
      return result;
    }
    if (probe || !result.status().IsCancelled()) {
      health_.RecordFailure(shard, latency);
    }
    // The service already retried transients whole-statement; one more
    // layer here covers corruption healed between attempts and queue-full
    // races. Timeout/Cancelled are final.
    if (!result.status().IsTransient() && !result.status().IsCorruption()) {
      return AnnotateShardStatus(result.status(), shard, attempts, &health_);
    }
  }
  if (!result.ok()) {
    return AnnotateShardStatus(result.status(), shard, attempts, &health_);
  }
  return result;
}

Result<ShardResult> ShardedDatabase::RunSelect(
    const Query& query, const ShardSubmitOptions& submit) {
  const std::vector<size_t> targets = router_.ShardsForQuery(query);
  std::vector<ScatterLeg> legs;
  legs.reserve(targets.size());
  for (const size_t shard : targets) {
    legs.push_back(ScatterLeg{shard, shards_[shard].get()});
  }
  router_metrics_.Increment(targets.size() == 1
                                ? kMetricShardStatementsRouted
                                : kMetricShardScatterStatements);
  router_metrics_.Increment(kMetricShardLegsDispatched,
                            static_cast<int64_t>(legs.size()));

  QueryControl control;
  if (submit.deadline.count() > 0) {
    control = QueryControl::WithDeadline(submit.deadline);
  }
  control.cancel = submit.cancel;

  ScatterOptions scatter;
  scatter.max_leg_retries = options_.max_leg_retries;
  scatter.allow_partial = submit.allow_partial;
  scatter.hedge_budget = options_.tolerance.hedge_budget;
  scatter.backoff_seed = StatementBackoffSeed(
      options_.tolerance.seed,
      statement_seq_.fetch_add(1, std::memory_order_relaxed));
  scatter.busy_backoff = options_.tolerance.busy_backoff;
  scatter.faults = &faults_;
  scatter.health = &health_;
  scatter.metrics = &router_metrics_;

  ScatterGatherScan scan(query, std::move(legs), scatter);
  ExecContext ctx;
  ctx.control = &control;
  Status status = scan.Open(&ctx);
  ShardResult result;
  if (status.ok()) {
    TupleBatch batch;
    while (true) {
      Result<bool> more = scan.NextBatch(&batch);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!more.value()) break;
      const uint32_t shard = static_cast<uint32_t>(scan.current_shard());
      for (const uint32_t index : batch.sel) {
        result.rids.push_back(GlobalRid{shard, batch.rids[index]});
      }
    }
  }
  scan.Close();
  if (scan.legs_retried() > 0) {
    router_metrics_.Increment(kMetricShardLegsRetried,
                              static_cast<int64_t>(scan.legs_retried()));
  }
  AIB_RETURN_IF_ERROR(status);
  result.stats = scan.merged_stats();
  result.stats.result_count = result.rids.size();
  result.legs = scan.leg_infos().size();
  result.legs_retried = scan.legs_retried();
  result.shards_skipped = scan.skipped_shards();
  result.legs_hedged = scan.hedges_dispatched();
  result.hedge_wins = scan.hedge_wins();
  if (!result.shards_skipped.empty()) {
    router_metrics_.Increment(kMetricShardPartialGathers);
  }
  return result;
}

Result<ShardResult> ShardedDatabase::RunDml(const ShardStatement& statement,
                                            const ShardSubmitOptions& submit) {
  size_t retried = 0;
  ShardResult out;
  switch (statement.kind) {
    case StatementKind::kInsert: {
      const size_t shard = router_.ShardForTuple(schema(), statement.tuple);
      AIB_ASSIGN_OR_RETURN(
          StatementResult result,
          RunOnShard(shard, Statement::Insert(statement.tuple), submit,
                     &retried));
      out = ToShardResult(std::move(result), shard);
      break;
    }
    case StatementKind::kUpdate: {
      const size_t current = statement.target.shard;
      if (current >= shards_.size()) {
        return Status::InvalidArgument("update targets unknown shard");
      }
      const size_t owner = router_.ShardForTuple(schema(), statement.tuple);
      if (owner == current) {
        AIB_ASSIGN_OR_RETURN(
            StatementResult result,
            RunOnShard(current,
                       Statement::Update(statement.target.rid,
                                         statement.tuple),
                       submit, &retried));
        out = ToShardResult(std::move(result), current);
        break;
      }
      // The new routing value moves the row: delete on the old owner,
      // insert on the new one. Two independent single-shard statements —
      // no cross-shard atomicity (a reader between the legs misses the
      // row), the price of shared-nothing shards without 2PC.
      AIB_RETURN_IF_ERROR(
          RunOnShard(current, Statement::Delete(statement.target.rid), submit,
                     &retried)
              .status());
      AIB_ASSIGN_OR_RETURN(
          StatementResult inserted,
          RunOnShard(owner, Statement::Insert(statement.tuple), submit,
                     &retried));
      out = ToShardResult(std::move(inserted), owner);
      out.rows_affected = 1;
      out.legs = 2;
      router_metrics_.Increment(kMetricShardRowsMigrated);
      break;
    }
    case StatementKind::kDelete: {
      const size_t shard = statement.target.shard;
      if (shard >= shards_.size()) {
        return Status::InvalidArgument("delete targets unknown shard");
      }
      AIB_ASSIGN_OR_RETURN(
          StatementResult result,
          RunOnShard(shard, Statement::Delete(statement.target.rid), submit,
                     &retried));
      out = ToShardResult(std::move(result), shard);
      break;
    }
    case StatementKind::kSelect:
      return Status::Internal("RunDml called with a select");
  }
  router_metrics_.Increment(kMetricShardStatementsRouted);
  router_metrics_.Increment(kMetricShardLegsDispatched,
                            static_cast<int64_t>(out.legs));
  if (retried > 0) {
    router_metrics_.Increment(kMetricShardLegsRetried,
                              static_cast<int64_t>(retried));
  }
  out.legs_retried = retried;
  return out;
}

Result<ShardResult> ShardedDatabase::ExecuteStatement(
    const ShardStatement& statement, const ShardSubmitOptions& submit) {
  if (statement.kind == StatementKind::kSelect) {
    return RunSelect(statement.query, submit);
  }
  return RunDml(statement, submit);
}

std::vector<size_t> ShardedDatabase::TargetShards(
    const ShardStatement& statement) const {
  switch (statement.kind) {
    case StatementKind::kSelect:
      return router_.ShardsForQuery(statement.query);
    case StatementKind::kInsert:
      return {router_.ShardForTuple(schema(), statement.tuple)};
    case StatementKind::kUpdate: {
      std::vector<size_t> targets;
      if (statement.target.shard < shards_.size()) {
        targets.push_back(statement.target.shard);
      }
      const size_t owner = router_.ShardForTuple(schema(), statement.tuple);
      if (targets.empty() || owner != targets.front()) {
        targets.push_back(owner);
      }
      std::sort(targets.begin(), targets.end());
      return targets;
    }
    case StatementKind::kDelete:
      if (statement.target.shard < shards_.size()) {
        return {statement.target.shard};
      }
      return {};
  }
  return {};
}

Status ShardedDatabase::AdmissionCheck(const ShardStatement& statement) const {
  const std::vector<size_t> targets = TargetShards(statement);
  if (targets.empty()) return Status::Ok();
  if (statement.IsDml()) {
    // DML needs every involved shard: one open breaker dooms it.
    for (const size_t shard : targets) {
      if (health_.WouldFailFast(shard)) {
        return Status::Unavailable(
            "shard " + std::to_string(shard) +
            ": circuit breaker open (breaker=" +
            BreakerStateName(health_.state(shard)) + ")");
      }
    }
    return Status::Ok();
  }
  // A select survives as long as any target shard would dispatch (at
  // worst degraded under allow_partial; fail-fast legs annotate precisely
  // if the caller didn't opt in).
  for (const size_t shard : targets) {
    if (!health_.WouldFailFast(shard)) return Status::Ok();
  }
  std::ostringstream msg;
  msg << "circuit breaker open on every target shard (";
  for (size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) msg << ",";
    msg << targets[i];
  }
  msg << ")";
  return Status::Unavailable(msg.str());
}

Status ShardedDatabase::RestartShard(size_t i) {
  if (i >= shards_.size()) {
    return Status::InvalidArgument("restart targets unknown shard");
  }
  // Revive before restarting: requests hung inside the injector hold no
  // restart latch, but reviving first lets any queued hang admits resolve
  // against the old incarnation instead of deadlocking the drain.
  faults_.Revive(i);
  AIB_RETURN_IF_ERROR(shards_[i]->Restart());
  health_.Reset(i);
  router_metrics_.Increment(kMetricShardRestarts);
  return Status::Ok();
}

Result<std::string> ShardedDatabase::Explain(const Query& query) {
  const std::vector<size_t> targets = router_.ShardsForQuery(query);
  std::ostringstream out;
  out << "ScatterGatherScan("
      << PredicateToString(query.column, query.lo, query.hi);
  for (const ColumnPredicate& residual : query.residuals) {
    out << " AND "
        << PredicateToString(residual.column, residual.lo, residual.hi);
  }
  out << ")  policy=" << ShardingPolicyName(router_.options().policy)
      << " legs=" << targets.size() << "/" << shards_.size() << "\n";
  // Executes each leg directly through its shard executor (like the
  // shell's explain) so the rendered plans carry real per-operator stats.
  for (const size_t shard : targets) {
    std::shared_lock<std::shared_mutex> gate(shards_[shard]->restart_latch());
    Executor* executor = shards_[shard]->db().executor();
    std::unique_ptr<PhysicalPlan> plan =
        executor->PlanStatement(Statement::Select(query));
    Result<StatementResult> result = executor->ExecutePlan(plan.get());
    out << "`- Leg[shard " << shard << "]  ";
    if (!result.ok()) {
      out << result.status().ToString() << "\n";
      continue;
    }
    out << "rows=" << result->rids.size() << "\n";
    std::istringstream rendered(ExplainPlan(*plan));
    std::string line;
    while (std::getline(rendered, line)) {
      out << "   " << line << "\n";
    }
  }
  return out.str();
}

// --- SingleNodeTarget -------------------------------------------------------

SingleNodeTarget::SingleNodeTarget(Schema schema, const ShardOptions& options)
    : node_(std::make_unique<Shard>(0, std::move(schema), options)) {}

SingleNodeTarget::~SingleNodeTarget() { node_->service().Shutdown(); }

const Schema& SingleNodeTarget::schema() const {
  return node_->db().table().schema();
}

Result<GlobalRid> SingleNodeTarget::LoadTuple(const Tuple& tuple) {
  AIB_ASSIGN_OR_RETURN(Rid rid, node_->db().LoadTuple(tuple));
  return GlobalRid{0, rid};
}

Status SingleNodeTarget::CreatePartialIndex(ColumnId column,
                                            ValueCoverage coverage,
                                            IndexStructureKind structure) {
  return node_->db().CreatePartialIndex(column, std::move(coverage),
                                        structure);
}

Result<ShardResult> SingleNodeTarget::ExecuteStatement(
    const ShardStatement& statement, const ShardSubmitOptions& submit) {
  Statement local;
  switch (statement.kind) {
    case StatementKind::kSelect:
      local = Statement::Select(statement.query);
      break;
    case StatementKind::kInsert:
      local = Statement::Insert(statement.tuple);
      break;
    case StatementKind::kUpdate:
      local = Statement::Update(statement.target.rid, statement.tuple);
      break;
    case StatementKind::kDelete:
      local = Statement::Delete(statement.target.rid);
      break;
  }
  AIB_ASSIGN_OR_RETURN(
      std::future<Result<StatementResult>> future,
      node_->service().Submit(local, ToSubmitOptions(submit)));
  AIB_ASSIGN_OR_RETURN(StatementResult result, future.get());
  return ToShardResult(std::move(result), 0);
}

Result<Tuple> SingleNodeTarget::FetchRow(const GlobalRid& grid) const {
  return node_->db().table().Get(grid.rid);
}

std::map<std::string, int64_t> SingleNodeTarget::FleetCounters() const {
  return node_->metrics().counters();
}

Result<std::string> SingleNodeTarget::Explain(const Query& query) {
  Executor* executor = node_->db().executor();
  std::unique_ptr<PhysicalPlan> plan =
      executor->PlanStatement(Statement::Select(query));
  AIB_RETURN_IF_ERROR(executor->ExecutePlan(plan.get()).status());
  return ExplainPlan(*plan);
}

}  // namespace aib
