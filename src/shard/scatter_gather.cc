#include "shard/scatter_gather.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "exec/batch.h"

namespace aib {

namespace {

/// Submit attempts against a Busy admission queue before the leg fails
/// Busy; each attempt sleeps a jittered exponential backoff.
constexpr size_t kAdmissionAttempts = 50;

/// Remaining budget of the caller's control as a Submit deadline, zero
/// (= unbounded) when none was set.
std::chrono::milliseconds RemainingBudget(const QueryControl* control) {
  if (control == nullptr || !control->has_deadline()) {
    return std::chrono::milliseconds{0};
  }
  const auto now = std::chrono::steady_clock::now();
  if (now >= control->deadline) return std::chrono::milliseconds{1};
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             control->deadline - now) +
         std::chrono::milliseconds{1};
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

}  // namespace

Status AnnotateShardStatus(const Status& status, size_t shard,
                           size_t attempts,
                           const ShardHealthTracker* health) {
  if (status.ok()) return status;
  std::string message = "shard " + std::to_string(shard) + ": " +
                        status.ToString() +
                        " (attempts=" + std::to_string(attempts);
  if (health != nullptr) {
    message += ", breaker=";
    message += BreakerStateName(health->state(shard));
  }
  message += ")";
  return Status::WithMessage(status.code(), message);
}

ScatterGatherScan::ScatterGatherScan(Query query, std::vector<ScatterLeg> legs,
                                     ScatterOptions options)
    : query_(std::move(query)),
      legs_(std::move(legs)),
      opts_(options),
      backoff_rng_(options.backoff_seed) {
  stats_ = {};
}

std::string ScatterGatherScan::Describe() const {
  std::ostringstream out;
  out << PredicateToString(query_.column, query_.lo, query_.hi);
  for (const ColumnPredicate& residual : query_.residuals) {
    out << " AND " << PredicateToString(residual.column, residual.lo,
                                        residual.hi);
  }
  return out.str();
}

Status ScatterGatherScan::DispatchLeg(size_t i) {
  const size_t shard = legs_[i].shard;
  LegInfo& info = leg_infos_[i];
  ++info.attempts;
  // Circuit-breaker gate: an open breaker refuses without touching the
  // shard; a due probe claims the single half-open dispatch slot.
  bool probe = false;
  if (opts_.health != nullptr) {
    const ShardHealthTracker::Admit admit =
        opts_.health->AdmitRequest(shard);
    info.breaker = opts_.health->state(shard);
    if (admit == ShardHealthTracker::Admit::kFailFast) {
      return Status::Unavailable("circuit breaker refused dispatch");
    }
    probe = admit == ShardHealthTracker::Admit::kProbe;
  }
  // Outage gate: crash fails fast, hang blocks until revive or the
  // caller's deadline/cancel, brownout draws seeded error/latency.
  if (opts_.faults != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    const Status fault = opts_.faults->Admit(shard, caller_control_);
    if (!fault.ok()) {
      // Cancelled is the caller's doing and stays out of the window —
      // unless this attempt holds the probe slot, which must resolve.
      if (opts_.health != nullptr && (probe || !fault.IsCancelled())) {
        opts_.health->RecordFailure(shard,
                                    std::chrono::steady_clock::now() - start);
      }
      return fault;
    }
  }
  SubmitOptions submit;
  submit.deadline = RemainingBudget(caller_control_);
  submit.cancel = leg_cancel_;
  const Statement statement = Statement::Select(query_);
  // Busy means the shard's admission queue is momentarily full — back off
  // with seeded jitter instead of failing the whole statement. Bounded so
  // a wedged shard surfaces as Busy rather than hanging the gather.
  for (size_t attempt = 0; attempt < kAdmissionAttempts; ++attempt) {
    Result<std::future<Result<StatementResult>>> future =
        legs_[i].node->service().Submit(statement, submit);
    if (future.ok()) {
      futures_[i] = std::move(future).value();
      dispatched_at_[i] = std::chrono::steady_clock::now();
      info.probe_pending = probe;
      return Status::Ok();
    }
    if (!future.status().IsBusy()) {
      // Admission refused outright (e.g. Cancelled after shutdown); a
      // claimed probe slot must still see an outcome or the breaker
      // would stay half-open forever.
      if (probe && opts_.health != nullptr) {
        opts_.health->RecordFailure(shard, std::chrono::nanoseconds{0});
      }
      return future.status();
    }
    if (caller_control_ != nullptr) {
      const Status caller = caller_control_->Check();
      if (!caller.ok()) {
        if (probe && opts_.health != nullptr) {
          opts_.health->RecordFailure(shard, std::chrono::nanoseconds{0});
        }
        return caller;
      }
    }
    std::this_thread::sleep_for(
        JitteredBackoff(opts_.busy_backoff, attempt, backoff_rng_));
  }
  // Queue-full exhaustion is load, not shard death — it only resolves a
  // pending probe (which must not wedge half-open), it does not feed the
  // breaker window of a healthy-but-loaded shard.
  if (probe && opts_.health != nullptr) {
    opts_.health->RecordFailure(shard, std::chrono::nanoseconds{0});
  }
  return Status::Busy("shard admission queue full");
}

Status ScatterGatherScan::DispatchWithRetries(size_t i) {
  LegInfo& info = leg_infos_[i];
  while (true) {
    const Status status = DispatchLeg(i);
    if (status.ok()) return status;
    info.status = status;
    if (status.IsUnavailable()) {
      if (opts_.allow_partial) {
        // Degraded gather: the caller opted into missing this shard's
        // rows rather than failing; the merged stats carry the marker.
        info.skipped = true;
        merged_.degraded = true;
        skipped_shards_.push_back(legs_[i].shard);
        if (opts_.metrics != nullptr) {
          opts_.metrics->Increment(kMetricShardLegsSkipped);
        }
        return Status::Ok();
      }
      return AnnotateShardStatus(status, legs_[i].shard, info.attempts,
                                 opts_.health);
    }
    const bool retriable = status.IsTransient() || status.IsCorruption();
    if (!retriable || info.attempts > opts_.max_leg_retries) {
      return AnnotateShardStatus(status, legs_[i].shard, info.attempts,
                                 opts_.health);
    }
    if (caller_control_ != nullptr) {
      AIB_RETURN_IF_ERROR(caller_control_->Check());
    }
    ++legs_retried_;
  }
}

Status ScatterGatherScan::Open(ExecContext* ctx) {
  if (ctx != nullptr) caller_control_ = ctx->control;
  if (caller_control_ != nullptr) {
    AIB_RETURN_IF_ERROR(caller_control_->Check());
  }
  leg_cancel_ = MakeCancelToken();
  futures_.resize(legs_.size());
  dispatched_at_.resize(legs_.size());
  leg_infos_.clear();
  leg_infos_.reserve(legs_.size());
  for (const ScatterLeg& leg : legs_) {
    LegInfo info;
    info.shard = leg.shard;
    leg_infos_.push_back(info);
  }
  // Pin every involved shard against warm restart for the lifetime of the
  // gather; the legs reach their services only under the pins.
  leg_gates_.clear();
  for (const ScatterLeg& leg : legs_) {
    leg_gates_.emplace_back(leg.node->restart_latch());
  }
  for (size_t i = 0; i < legs_.size(); ++i) {
    const Status status = DispatchWithRetries(i);
    if (!status.ok()) {
      // Stop the already-dispatched siblings before reporting.
      leg_cancel_->store(true, std::memory_order_relaxed);
      return status;
    }
  }
  opened_ = true;
  return Status::Ok();
}

Result<StatementResult> ScatterGatherScan::CollectLeg(size_t i) {
  std::future<Result<StatementResult>>& primary = futures_[i];
  const size_t shard = legs_[i].shard;
  if (opts_.health == nullptr || opts_.hedge_budget == 0 ||
      hedges_used_ >= opts_.hedge_budget) {
    return primary.get();
  }
  const std::chrono::microseconds delay = opts_.health->HedgeDelay(shard);
  if (primary.wait_for(delay) == std::future_status::ready) {
    return primary.get();
  }
  // The leg is past its hedge delay. Hedge only into a shard believed
  // healthy — duplicating into an open breaker or an armed outage would
  // fail the same way and burn budget for nothing.
  if (opts_.health->state(shard) != BreakerState::kClosed) {
    return primary.get();
  }
  if (opts_.faults != nullptr &&
      opts_.faults->outage(shard) != ShardOutage::kNone) {
    return primary.get();
  }
  SubmitOptions submit;
  submit.deadline = RemainingBudget(caller_control_);
  submit.cancel = leg_cancel_;
  Result<std::future<Result<StatementResult>>> hedge =
      legs_[i].node->service().Submit(Statement::Select(query_), submit);
  if (!hedge.ok()) return primary.get();
  ++hedges_used_;
  leg_infos_[i].hedged = true;
  if (opts_.metrics != nullptr) {
    opts_.metrics->Increment(kMetricShardLegsHedged);
  }
  std::future<Result<StatementResult>> duplicate = std::move(hedge).value();
  // First ready wins. Both run the identical statement on the same shard,
  // so either result is the leg's result; the loser keeps running to its
  // own resolution (its future parks in discarded_ until Close).
  while (true) {
    if (primary.wait_for(std::chrono::microseconds(200)) ==
        std::future_status::ready) {
      discarded_.push_back(std::move(duplicate));
      return primary.get();
    }
    if (duplicate.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      ++hedge_wins_;
      if (opts_.metrics != nullptr) {
        opts_.metrics->Increment(kMetricShardHedgeWins);
      }
      discarded_.push_back(std::move(primary));
      return duplicate.get();
    }
  }
}

Status ScatterGatherScan::AwaitLeg(size_t i) {
  LegInfo& info = leg_infos_[i];
  const size_t shard = legs_[i].shard;
  while (true) {
    Result<StatementResult> result = CollectLeg(i);
    const std::chrono::nanoseconds elapsed =
        std::chrono::steady_clock::now() - dispatched_at_[i];
    if (result.ok()) {
      if (opts_.health != nullptr) {
        opts_.health->RecordSuccess(shard, elapsed);
      }
      info.probe_pending = false;
      info.status = Status::Ok();
      info.rows = result->rids.size();
      info.stats = result->stats;
      MergeLeg(result->stats, &merged_);
      current_rids_ = std::move(result->rids);
      return Status::Ok();
    }
    info.status = result.status();
    // Cancellation is the caller's decision, not the shard's health; every
    // other failure of a dispatched request (Timeout included — a hung
    // shard manifests exactly as timeouts) feeds the breaker window. A
    // probe leg records its failure even when cancelled (leg_cancel_ fires
    // whenever a sibling leg fails) — the claimed slot must resolve.
    if (opts_.health != nullptr &&
        (info.probe_pending || !result.status().IsCancelled())) {
      opts_.health->RecordFailure(shard, elapsed);
    }
    info.probe_pending = false;
    // Only this leg re-plans: transient shortages and corruption are
    // retriable per the recovery-free argument (the shard quarantines and
    // heals between attempts); Timeout/Cancelled are final.
    const bool retriable =
        result.status().IsTransient() || result.status().IsCorruption();
    if (!retriable || info.attempts > opts_.max_leg_retries) {
      return AnnotateShardStatus(result.status(), shard, info.attempts,
                                 opts_.health);
    }
    if (caller_control_ != nullptr) {
      AIB_RETURN_IF_ERROR(caller_control_->Check());
    }
    ++legs_retried_;
    AIB_RETURN_IF_ERROR(DispatchWithRetries(i));
    if (info.skipped) {
      // The breaker opened between attempts and the caller allows
      // partial results: the leg bows out with what it never got.
      current_rids_.clear();
      return Status::Ok();
    }
  }
}

Result<bool> ScatterGatherScan::NextBatch(TupleBatch* out) {
  out->Clear();
  while (true) {
    if (caller_control_ != nullptr) {
      const Status status = caller_control_->Check();
      if (!status.ok()) {
        leg_cancel_->store(true, std::memory_order_relaxed);
        return status;
      }
    }
    if (cursor_ < current_rids_.size()) {
      EmitRidChunk(current_rids_, &cursor_, /*needs_fetch=*/false, out);
      stats_.rows_out += out->ActiveCount();
      return true;
    }
    if (leg_index_ >= legs_.size()) return false;
    const size_t i = leg_index_++;
    if (leg_infos_[i].skipped) continue;
    current_shard_ = legs_[i].shard;
    current_rids_.clear();
    cursor_ = 0;
    const Status status = AwaitLeg(i);
    if (!status.ok()) {
      leg_cancel_->store(true, std::memory_order_relaxed);
      return status;
    }
    // Loop: an empty or skipped leg advances to the next one without
    // emitting.
  }
}

Status ScatterGatherScan::Close() {
  if (leg_cancel_ != nullptr) {
    // Stop any leg not yet drained (early close / error paths); the shard
    // services resolve their futures regardless, and shared_ptr keeps the
    // token alive for them.
    leg_cancel_->store(true, std::memory_order_relaxed);
  }
  // A dispatched probe leg left undrained (an earlier leg's error ended
  // the gather before AwaitLeg reached it) has recorded no outcome, which
  // would wedge the breaker in HalfProbe forever. Resolve it here: with
  // the real outcome when the future already landed, conservatively as a
  // failure otherwise — the breaker re-probes later either way.
  if (opts_.health != nullptr) {
    for (size_t i = 0; i < leg_infos_.size(); ++i) {
      LegInfo& info = leg_infos_[i];
      if (!info.probe_pending) continue;
      info.probe_pending = false;
      const size_t shard = legs_[i].shard;
      if (futures_[i].valid() &&
          futures_[i].wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
        const Result<StatementResult> result = futures_[i].get();
        const std::chrono::nanoseconds elapsed =
            std::chrono::steady_clock::now() - dispatched_at_[i];
        if (result.ok()) {
          opts_.health->RecordSuccess(shard, elapsed);
        } else {
          opts_.health->RecordFailure(shard, elapsed);
        }
      } else {
        opts_.health->RecordFailure(shard, std::chrono::nanoseconds{0});
      }
    }
  }
  // Undrained and hedged-loser futures resolve under the restart pins:
  // QueryService::Shutdown (the restart teardown) joins its workers, so
  // by the time a restart can proceed past the pins every promise these
  // futures wait on has been fulfilled.
  discarded_.clear();
  leg_gates_.clear();
  opened_ = false;
  return Status::Ok();
}

std::string ExplainScatter(const ScatterGatherScan& scan, size_t num_shards,
                           const std::string& policy) {
  std::ostringstream out;
  out << scan.Name() << "(" << scan.Describe() << ")  policy=" << policy
      << " legs=" << scan.leg_infos().size() << "/" << num_shards;
  if (scan.legs_retried() > 0) out << " retried=" << scan.legs_retried();
  if (!scan.skipped_shards().empty()) {
    out << " skipped=" << scan.skipped_shards().size() << " (degraded)";
  }
  if (scan.hedges_dispatched() > 0) {
    out << " hedged=" << scan.hedges_dispatched();
  }
  out << "\n";
  for (const ScatterGatherScan::LegInfo& leg : scan.leg_infos()) {
    out << "`- Leg[shard " << leg.shard << "]  rows=" << leg.rows
        << " attempts=" << leg.attempts << " ";
    if (leg.skipped) {
      out << "skipped (breaker=" << BreakerStateName(leg.breaker) << ")";
    } else {
      out << (leg.status.ok() ? "ok" : leg.status.ToString());
    }
    if (leg.hedged) out << " hedged";
    out << "\n";
  }
  return out.str();
}

}  // namespace aib
