#include "shard/sharded_database.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "exec/plan.h"

namespace aib {

namespace {

/// Submit attempts against a Busy admission queue before the leg fails
/// Busy; each attempt sleeps a jittered exponential backoff.
constexpr size_t kAdmissionAttempts = 50;

/// How often a leg wait looks at the caller's cancel token.
constexpr std::chrono::milliseconds kCancelPoll{1};

/// What remains of the caller's deadline as a Submit deadline: zero
/// (= unbounded) when none was set, at least 1ms otherwise.
std::chrono::milliseconds RemainingBudget(const QueryControl& control) {
  if (!control.has_deadline()) return std::chrono::milliseconds{0};
  const auto now = std::chrono::steady_clock::now();
  if (now >= control.deadline) return std::chrono::milliseconds{1};
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             control.deadline - now) +
         std::chrono::milliseconds{1};
}

/// Waits up to `limit` for `future`; true when it is ready. While it
/// waits, a cancel of the caller's token is passed on to `legs`, the
/// statement's own leg token, so the leg stops at its next check and
/// resolves with its own outcome.
bool WaitLeg(const QueryControl& caller, const CancelToken& legs,
             std::future<Result<StatementResult>>& future,
             std::chrono::nanoseconds limit) {
  if (limit == std::chrono::nanoseconds::max() && caller.cancel == nullptr) {
    // Nothing to poll for: block. wait_for(max) would overflow adding the
    // limit to now() and return at once, spinning this loop.
    future.wait();
    return true;
  }
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    const std::chrono::nanoseconds left =
        limit - (std::chrono::steady_clock::now() - start);
    if (left <= std::chrono::nanoseconds{0}) {
      return future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    }
    const std::chrono::nanoseconds slice =
        caller.cancel == nullptr
            ? left
            : std::min<std::chrono::nanoseconds>(left, kCancelPoll);
    if (future.wait_for(slice) == std::future_status::ready) return true;
    if (caller.cancel != nullptr &&
        caller.cancel->load(std::memory_order_relaxed)) {
      legs->store(true, std::memory_order_relaxed);
    }
  }
}

/// Folds one leg's stats into the statement-wide merge.
void MergeLeg(const QueryStats& leg, QueryStats* merged) {
  merged->Add(leg);
  merged->used_partial_index |= leg.used_partial_index;
  merged->used_index_buffer |= leg.used_index_buffer;
  merged->result_count += leg.result_count;
  merged->cost += leg.cost;
  // Legs run concurrently; the statement's wall is the slowest leg.
  merged->wall_ns = std::max(merged->wall_ns, leg.wall_ns);
}

/// Annotates a failed leg with its shard, attempt count and breaker state,
/// so a multi-shard failure is diagnosable from the one error string that
/// reaches the caller: "shard 2: IoError: ... (attempts=3, breaker=open)".
Status AnnotateShardStatus(const Status& status, size_t shard,
                           size_t attempts, const ShardHealthTracker& health) {
  return Status::WithMessage(
      status.code(), "shard " + std::to_string(shard) + ": " +
                         status.ToString() +
                         " (attempts=" + std::to_string(attempts) +
                         ", breaker=" + BreakerStateName(health.state(shard)) +
                         ")");
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
  const Table& table = shards_[grid.shard]->db().table();
  // The page's heap stripe, shared, like a covered probe's fetch: a
  // concurrent statement may be mutating that page.
  AIB_ASSIGN_OR_RETURN(const size_t page, table.PageNumberOf(grid.rid));
  const PartitionLatchTable::LatchSet latch =
      table.page_latches().AcquireShared(table.page_latches().MaskOf(page));
  return table.Get(grid.rid);
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

/// One shard leg of a statement.
struct ShardedDatabase::Leg {
  Leg(size_t shard, std::shared_mutex& restart_latch)
      : shard(shard), pin(restart_latch) {}

  size_t shard;
  /// Held from dispatch to the end of the statement, so a concurrent
  /// restart cannot swap the shard's service out from under the leg.
  std::shared_lock<std::shared_mutex> pin;
  /// Dispatch attempts (1 = no retry), refused ones included.
  size_t attempts = 0;
  /// Outcome of the last Dispatch; `future` is valid only when it is Ok.
  Status dispatched;
  std::future<Result<StatementResult>> future;
  std::chrono::steady_clock::time_point dispatched_at;
  /// The leg holds the shard's half-open probe slot and has not recorded
  /// its outcome yet. Every claimed slot must resolve (success or
  /// failure), or the breaker wedges in HalfProbe.
  bool probe_pending = false;
};

/// What the legs of one statement share.
struct ShardedDatabase::LegRun {
  LegRun(const Statement& statement, const QueryControl& control,
         uint64_t backoff_seed)
      : statement(statement), control(control), backoff_rng(backoff_seed) {}

  const Statement& statement;
  const QueryControl& control;
  /// Handed to every leg; fired when the caller cancels during a wait and
  /// when the run ends, so a leg abandoned after a sibling failed stops
  /// at its next page boundary.
  CancelToken cancel = MakeCancelToken();
  Rng backoff_rng;
  size_t hedge_budget = 0;
  size_t retried = 0;
  size_t hedged = 0;
  size_t hedge_wins = 0;
  /// Losers of won hedges, kept until the run ends.
  std::vector<std::future<Result<StatementResult>>> discarded;
};

Status ShardedDatabase::Dispatch(LegRun& run, Leg& leg) {
  const size_t shard = leg.shard;
  ++leg.attempts;
  // Circuit-breaker gate: an open breaker refuses without touching the
  // shard; a due probe claims the single half-open dispatch slot.
  const ShardHealthTracker::Admit admit = health_.AdmitRequest(shard);
  if (admit == ShardHealthTracker::Admit::kFailFast) {
    return Status::Unavailable("circuit breaker refused dispatch");
  }
  const bool probe = admit == ShardHealthTracker::Admit::kProbe;
  // Outage gate: crash fails fast, hang blocks until revive or the
  // caller's deadline/cancel, brownout draws seeded error/latency.
  const auto start = std::chrono::steady_clock::now();
  Status status = faults_.Admit(shard, &run.control);
  // A failure the gate returns is this shard's outage. A caller check that
  // fails after the gate passed is the shard's only when an armed outage
  // (a brownout delay) spent the budget; an earlier leg or a backoff that
  // spent it says nothing about this shard.
  bool shard_fault = !status.ok();
  if (status.ok()) {
    status = run.control.Check();
    shard_fault = faults_.outage(shard) != ShardOutage::kNone;
  }
  if (!status.ok()) {
    // Cancelled is the caller's doing and stays out of the window —
    // unless this attempt holds the probe slot, which must resolve.
    if (probe || (shard_fault && !status.IsCancelled())) {
      health_.RecordFailure(shard, std::chrono::steady_clock::now() - start);
    }
    return status;
  }
  SubmitOptions submit;
  submit.deadline = RemainingBudget(run.control);
  submit.cancel = run.cancel;
  // Busy means the shard's admission queue is momentarily full: back off
  // with seeded jitter. Bounded, so a wedged shard surfaces as Busy.
  for (size_t attempt = 0; attempt < kAdmissionAttempts; ++attempt) {
    Result<std::future<Result<StatementResult>>> future =
        shards_[shard]->service().Submit(run.statement, submit);
    if (future.ok()) {
      leg.future = std::move(future).value();
      leg.dispatched_at = std::chrono::steady_clock::now();
      leg.probe_pending = probe;
      return Status::Ok();
    }
    status = future.status();
    if (!status.IsBusy()) break;
    status = run.control.Check();
    if (!status.ok()) break;
    std::this_thread::sleep_for(JitteredBackoff(
        options_.tolerance.busy_backoff, attempt, run.backoff_rng));
    status = Status::Busy("shard admission queue full");
  }
  // Refused before reaching the shard: queue-full exhaustion is load, not
  // shard death, so it stays out of the breaker window — but a claimed
  // probe slot must still resolve.
  if (probe) health_.RecordFailure(shard, std::chrono::nanoseconds{0});
  return status;
}

Result<StatementResult> ShardedDatabase::Collect(LegRun& run, Leg& leg) {
  constexpr std::chrono::nanoseconds kNoLimit =
      std::chrono::nanoseconds::max();
  std::future<Result<StatementResult>>& primary = leg.future;
  // Past the hedge delay, hedge only into a shard believed healthy:
  // duplicating into an open breaker or an armed outage would fail the
  // same way and burn budget for nothing.
  if (run.hedged < run.hedge_budget &&
      !WaitLeg(run.control, run.cancel, primary,
               health_.HedgeDelay(leg.shard)) &&
      health_.state(leg.shard) == BreakerState::kClosed &&
      faults_.outage(leg.shard) == ShardOutage::kNone) {
    SubmitOptions submit;
    submit.deadline = RemainingBudget(run.control);
    submit.cancel = run.cancel;
    Result<std::future<Result<StatementResult>>> hedge =
        shards_[leg.shard]->service().Submit(run.statement, submit);
    if (hedge.ok()) {
      ++run.hedged;
      router_metrics_.Increment(kMetricShardLegsHedged);
      std::future<Result<StatementResult>> duplicate =
          std::move(hedge).value();
      // First ready wins. Both run the identical statement on the same
      // shard, so either result is the leg's result; the loser runs to its
      // own resolution and parks in `discarded`.
      while (true) {
        if (WaitLeg(run.control, run.cancel, primary,
                    std::chrono::microseconds(200))) {
          run.discarded.push_back(std::move(duplicate));
          return primary.get();
        }
        if (duplicate.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          ++run.hedge_wins;
          router_metrics_.Increment(kMetricShardHedgeWins);
          run.discarded.push_back(std::move(primary));
          return duplicate.get();
        }
      }
    }
  }
  WaitLeg(run.control, run.cancel, primary, kNoLimit);
  return primary.get();
}

bool ShardedDatabase::FailsStatement(const Leg& leg,
                                     const Status& status) const {
  // Transient shortages and corruption are retriable per the recovery-free
  // argument (the shard quarantines and heals between attempts); Timeout,
  // Cancelled and an open breaker are final.
  const bool retriable = status.IsTransient() || status.IsCorruption();
  return !retriable || leg.attempts > kMaxLegRetries;
}

Result<StatementResult> ShardedDatabase::Await(LegRun& run, Leg& leg) {
  while (true) {
    Status status = leg.dispatched;
    if (status.ok()) {
      Result<StatementResult> result = Collect(run, leg);
      const std::chrono::nanoseconds elapsed =
          std::chrono::steady_clock::now() - leg.dispatched_at;
      if (result.ok()) {
        health_.RecordSuccess(leg.shard, elapsed);
        leg.probe_pending = false;
        return result;
      }
      status = result.status();
      // Cancellation is the caller's decision, not the shard's health;
      // every other failure of a dispatched request (Timeout included — a
      // hung shard manifests exactly as timeouts) feeds the breaker. A
      // probe records even a cancelled failure: the slot must resolve.
      if (leg.probe_pending || !status.IsCancelled()) {
        health_.RecordFailure(leg.shard, elapsed);
      }
      leg.probe_pending = false;
    }
    if (FailsStatement(leg, status)) {
      return AnnotateShardStatus(status, leg.shard, leg.attempts, health_);
    }
    // Only this leg re-runs.
    AIB_RETURN_IF_ERROR(run.control.Check());
    ++run.retried;
    leg.dispatched = Dispatch(run, leg);
  }
}

Result<ShardResult> ShardedDatabase::RunLegs(const Statement& statement,
                                             const std::vector<size_t>& shards,
                                             const QueryControl& control) {
  AIB_RETURN_IF_ERROR(control.Check());
  const bool select = statement.kind == StatementKind::kSelect;
  LegRun run(statement, control,
             StatementBackoffSeed(
                 options_.tolerance.seed,
                 statement_seq_.fetch_add(1, std::memory_order_relaxed)));
  run.hedge_budget = select ? options_.tolerance.hedge_budget : 0;

  std::vector<Leg> legs;
  legs.reserve(shards.size());
  for (const size_t shard : shards) {
    legs.emplace_back(shard, shards_[shard]->restart_latch());
  }
  Status status = Status::Ok();
  // Dispatch stops at the first leg whose refusal fails the statement: the
  // legs after it would only spend the caller's budget (and charge their
  // breakers for time the failed leg used up).
  for (Leg& leg : legs) {
    leg.dispatched = Dispatch(run, leg);
    if (!leg.dispatched.ok() && FailsStatement(leg, leg.dispatched)) {
      status = AnnotateShardStatus(leg.dispatched, leg.shard, leg.attempts,
                                   health_);
      break;
    }
  }

  ShardResult out;
  out.legs = legs.size();
  for (size_t i = 0; status.ok() && i < legs.size(); ++i) {
    Leg& leg = legs[i];
    status = control.Check();
    if (!status.ok()) break;
    Result<StatementResult> result = Await(run, leg);
    if (!result.ok()) {
      status = result.status();
      break;
    }
    for (const Rid& rid : result->rids) {
      out.rids.push_back(GlobalRid{static_cast<uint32_t>(leg.shard), rid});
    }
    out.rows_affected += result->rows_affected;
    MergeLeg(result->stats, &out.stats);
  }

  // Stop any leg still running (a sibling failed, or a hedge lost).
  run.cancel->store(true, std::memory_order_relaxed);
  // A dispatched probe leg left unawaited because an earlier leg failed
  // has recorded no outcome. Resolve it here: with the real outcome when
  // it already landed, as a failure otherwise — the breaker re-probes
  // later either way.
  for (Leg& leg : legs) {
    if (!leg.probe_pending) continue;
    if (leg.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready &&
        leg.future.get().ok()) {
      health_.RecordSuccess(leg.shard, std::chrono::steady_clock::now() -
                                           leg.dispatched_at);
    } else {
      health_.RecordFailure(leg.shard, std::chrono::nanoseconds{0});
    }
  }
  if (run.retried > 0) {
    router_metrics_.Increment(kMetricShardLegsRetried,
                              static_cast<int64_t>(run.retried));
  }
  AIB_RETURN_IF_ERROR(status);
  out.legs_retried = run.retried;
  out.legs_hedged = run.hedged;
  out.hedge_wins = run.hedge_wins;
  return out;
}

Result<ShardResult> ShardedDatabase::RunSelect(const Query& query,
                                               const QueryControl& control) {
  const std::vector<size_t> targets = router_.ShardsForQuery(query);
  router_metrics_.Increment(targets.size() == 1
                                ? kMetricShardStatementsRouted
                                : kMetricShardScatterStatements);
  router_metrics_.Increment(kMetricShardLegsDispatched,
                            static_cast<int64_t>(targets.size()));
  return RunLegs(Statement::Select(query), targets, control);
}

Result<ShardResult> ShardedDatabase::RunDml(const ShardStatement& statement,
                                            const QueryControl& control) {
  ShardResult out;
  switch (statement.kind) {
    case StatementKind::kInsert: {
      const size_t shard = router_.ShardForTuple(schema(), statement.tuple);
      AIB_ASSIGN_OR_RETURN(out, RunLegs(Statement::Insert(statement.tuple),
                                        {shard}, control));
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
            out, RunLegs(Statement::Update(statement.target.rid,
                                           statement.tuple),
                         {current}, control));
        break;
      }
      // The new routing value moves the row: delete on the old owner,
      // insert on the new one. Two independent single-shard statements —
      // no cross-shard atomicity (a reader between the legs misses the
      // row), the price of shared-nothing shards without 2PC. The caller's
      // deadline and cancel bound the delete only: once it has committed,
      // the insert runs to its own outcome (breaker and retry ladder
      // still apply), so a spent budget cannot drop the row in between.
      AIB_ASSIGN_OR_RETURN(
          const ShardResult deleted,
          RunLegs(Statement::Delete(statement.target.rid), {current},
                  control));
      AIB_ASSIGN_OR_RETURN(out, RunLegs(Statement::Insert(statement.tuple),
                                        {owner}, QueryControl{}));
      out.rows_affected = 1;
      out.legs = 2;
      out.legs_retried += deleted.legs_retried;
      router_metrics_.Increment(kMetricShardRowsMigrated);
      break;
    }
    case StatementKind::kDelete: {
      const size_t shard = statement.target.shard;
      if (shard >= shards_.size()) {
        return Status::InvalidArgument("delete targets unknown shard");
      }
      AIB_ASSIGN_OR_RETURN(out,
                           RunLegs(Statement::Delete(statement.target.rid),
                                   {shard}, control));
      break;
    }
    case StatementKind::kSelect:
      return Status::Internal("RunDml called with a select");
  }
  router_metrics_.Increment(kMetricShardStatementsRouted);
  router_metrics_.Increment(kMetricShardLegsDispatched,
                            static_cast<int64_t>(out.legs));
  return out;
}

Result<ShardResult> ShardedDatabase::ExecuteStatement(
    const ShardStatement& statement, const ShardSubmitOptions& submit) {
  // One control for the whole statement: every leg spends the same
  // deadline (a migrating update's insert excepted, see RunDml).
  QueryControl control;
  if (submit.deadline.count() > 0) {
    control = QueryControl::WithDeadline(submit.deadline);
  }
  control.cancel = submit.cancel;
  if (statement.kind == StatementKind::kSelect) {
    return RunSelect(statement.query, control);
  }
  return RunDml(statement, control);
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
  // The shell and its explain goldens read this header line.
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

}  // namespace aib
