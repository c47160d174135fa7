#include "tools/shell_session.h"

#include <optional>
#include <sstream>

#include "common/rng.h"
#include "core/consistency.h"
#include "storage/fault_injector.h"

namespace aib::tools {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

/// Parses "key=value" into the target if the key matches.
bool ParseKv(const std::string& token, const std::string& key,
             size_t* target) {
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0) return false;
  *target = std::stoull(token.substr(prefix.size()));
  return true;
}

/// Null for an unknown structure name.
std::optional<IndexStructureKind> ParseKind(const std::string& name) {
  if (name == "btree") return IndexStructureKind::kBTree;
  if (name == "hash") return IndexStructureKind::kHash;
  return std::nullopt;
}

/// Appends residual conjuncts parsed from COLUMN LO HI triplets starting at
/// `tokens[from]`. Throws (caught by ExecuteLine) on malformed numbers.
bool ParseResiduals(const std::vector<std::string>& tokens, size_t from,
                    Query* query) {
  if ((tokens.size() - from) % 3 != 0) return false;
  for (size_t i = from; i + 2 < tokens.size(); i += 3) {
    query->And(static_cast<ColumnId>(std::stoi(tokens[i])),
               std::stoi(tokens[i + 1]), std::stoi(tokens[i + 2]));
  }
  return true;
}

}  // namespace

ShellSession::ShellSession(std::ostream& out) : out_(out) {
  catalog_ = std::make_unique<Catalog>(CatalogOptions{});
}

bool ShellSession::Fail(const std::string& message) {
  out_ << "error: " << message << "\n";
  return false;
}

QueryControl ShellSession::MakeControl() const {
  return deadline_.count() > 0 ? QueryControl::WithDeadline(deadline_)
                               : QueryControl{};
}

Result<ShardResult> ShellSession::ExecuteSharded(
    ShardedDatabase* db, const ShardStatement& statement) {
  ShardSubmitOptions submit;
  submit.deadline = deadline_;
  return db->ExecuteStatement(statement, submit);
}

Result<StatementResult> ShellSession::ExecuteQuery(Table* table,
                                                   const Query& query) {
  // Same whole-query retry policy as the QueryService: transients and
  // corruption get a fresh plan (quarantine/fallback inside the scan
  // operators heals the buffer between attempts); Timeout/Cancelled do not.
  Result<StatementResult> result =
      Result<StatementResult>(Status::Internal("query not attempted"));
  for (int attempt = 0; attempt < 4; ++attempt) {
    const QueryControl control = MakeControl();
    result = catalog_->ExecuteStatement(table, Statement::Select(query),
        deadline_.count() > 0 ? &control : nullptr);
    if (result.ok() || (!result.status().IsTransient() &&
                        !result.status().IsCorruption())) {
      break;
    }
  }
  return result;
}

size_t ShellSession::Run(std::istream& in) {
  size_t failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!ExecuteLine(line)) ++failures;
  }
  return failures;
}

bool ShellSession::ExecuteLine(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return true;
  const std::string& command = tokens[0];

  try {
    if (command == "shards") {
      if (tokens.size() < 2) {
        return Fail("shards N [hash|range] [COLUMN] | shards off");
      }
      // Mode changes drop existing sharded tables either way.
      sharded_.clear();
      if (tokens[1] == "off") {
        shard_count_ = 0;
        out_ << "ok: sharded mode off\n";
        return true;
      }
      const size_t n = std::stoull(tokens[1]);
      if (n == 0) return Fail("shard count must be >= 1");
      shard_policy_ = ShardingPolicy::kHash;
      if (tokens.size() > 2) {
        if (tokens[2] == "range") {
          shard_policy_ = ShardingPolicy::kRange;
        } else if (tokens[2] != "hash") {
          return Fail("policy must be hash or range");
        }
      }
      routing_column_ =
          tokens.size() > 3 ? static_cast<ColumnId>(std::stoi(tokens[3])) : 0;
      shard_count_ = n;
      out_ << "ok: sharded mode, " << n << " shards, policy "
           << ShardingPolicyName(shard_policy_) << ", routing column "
           << routing_column_ << "\n";
      return true;
    }

    if (sharded() && command != "config" && command != "deadline" &&
        command != "echo") {
      return ExecuteShardedLine(tokens);
    }

    if (command == "config") {
      CatalogOptions options;
      for (size_t i = 1; i < tokens.size(); ++i) {
        size_t value = 0;
        if (ParseKv(tokens[i], "space_entries", &value)) {
          options.space.max_entries = value;
        } else if (ParseKv(tokens[i], "imax", &value)) {
          options.space.max_pages_per_scan = value;
        } else if (ParseKv(tokens[i], "partition_pages", &value)) {
          options.buffer.partition_pages = value;
        } else if (ParseKv(tokens[i], "tuples_per_page", &value)) {
          options.max_tuples_per_page = static_cast<uint16_t>(value);
        } else if (ParseKv(tokens[i], "pool_pages", &value)) {
          options.buffer_pool_pages = value;
        } else {
          return Fail("unknown config key " + tokens[i]);
        }
      }
      catalog_ = std::make_unique<Catalog>(options);
      out_ << "ok: catalog configured\n";
      return true;
    }

    if (command == "create_table") {
      if (tokens.size() != 3) return Fail("create_table NAME INTCOLS");
      const int int_cols = std::stoi(tokens[2]);
      Result<Table*> table = catalog_->CreateTable(
          tokens[1], Schema::PaperSchema(int_cols, 64));
      if (!table.ok()) return Fail(table.status().ToString());
      out_ << "ok: table " << tokens[1] << " with " << int_cols
           << " int columns\n";
      return true;
    }

    if (command == "load_random") {
      if (tokens.size() < 5) return Fail("load_random NAME COUNT LO HI [SEED]");
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      const size_t count = std::stoull(tokens[2]);
      const Value lo = std::stoi(tokens[3]);
      const Value hi = std::stoi(tokens[4]);
      Rng rng(tokens.size() > 5 ? std::stoull(tokens[5]) : 1);
      const size_t int_cols = table->schema().IntColumnIds().size();
      for (size_t i = 0; i < count; ++i) {
        std::vector<Value> values;
        for (size_t c = 0; c < int_cols; ++c) {
          values.push_back(static_cast<Value>(rng.UniformInt(lo, hi)));
        }
        Result<Rid> rid =
            catalog_->LoadTuple(table, Tuple(std::move(values), {"row"}));
        if (!rid.ok()) return Fail(rid.status().ToString());
      }
      out_ << "ok: loaded " << count << " tuples into " << tokens[1] << " ("
           << table->PageCount() << " pages)\n";
      return true;
    }

    if (command == "create_index") {
      const std::optional<IndexStructureKind> kind =
          ParseKind(tokens.size() > 5 ? tokens[5] : "btree");
      if (tokens.size() < 5 || !kind.has_value()) {
        return Fail("create_index NAME COLUMN LO HI [btree|hash]");
      }
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      const ColumnId column = static_cast<ColumnId>(std::stoi(tokens[2]));
      const Status status = catalog_->CreatePartialIndex(
          table, column,
          ValueCoverage::Range(std::stoi(tokens[3]), std::stoi(tokens[4])),
          *kind);
      if (!status.ok()) return Fail(status.ToString());
      out_ << "ok: partial index on " << tokens[1] << "." << column
           << " covering [" << tokens[3] << "," << tokens[4] << "]\n";
      return true;
    }

    if (command == "attach_tuner") {
      if (tokens.size() < 3) {
        return Fail("attach_tuner NAME COLUMN [WINDOW THRESHOLD CAPACITY]");
      }
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      IndexTunerOptions options;
      if (tokens.size() > 3) options.window_size = std::stoull(tokens[3]);
      if (tokens.size() > 4) options.index_threshold = std::stoi(tokens[4]);
      if (tokens.size() > 5) {
        options.max_indexed_values = std::stoull(tokens[5]);
      }
      const Status status = catalog_->AttachTuner(
          table, static_cast<ColumnId>(std::stoi(tokens[2])), options);
      if (!status.ok()) return Fail(status.ToString());
      out_ << "ok: tuner attached\n";
      return true;
    }

    if (command == "query" || command == "range") {
      const bool is_range = command == "range";
      const size_t base = is_range ? 5u : 4u;
      if (tokens.size() < base) {
        return Fail(is_range ? "range NAME COLUMN LO HI [COLUMN LO HI ...]"
                             : "query NAME COLUMN VALUE [COLUMN LO HI ...]");
      }
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      const ColumnId column = static_cast<ColumnId>(std::stoi(tokens[2]));
      const Value lo = std::stoi(tokens[3]);
      const Value hi = is_range ? std::stoi(tokens[4]) : lo;
      Query query = Query::Range(column, lo, hi);
      if (!ParseResiduals(tokens, base, &query)) {
        return Fail("residual predicates must be COLUMN LO HI triplets");
      }
      Result<StatementResult> result = ExecuteQuery(table, query);
      if (!result.ok()) return Fail(result.status().ToString());
      out_ << "rows=" << result->rids.size()
           << " cost=" << result->stats.cost
           << " scanned=" << result->stats.pages_scanned
           << " skipped=" << result->stats.pages_skipped
           << (result->stats.used_partial_index ? " [index]"
               : result->stats.used_index_buffer ? " [buffer]"
                                                 : " [scan]")
           << "\n";
      return true;
    }

    if (command == "explain") {
      if (tokens.size() < 5) {
        return Fail("explain NAME COLUMN LO HI [COLUMN LO HI ...]");
      }
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      Query query = Query::Range(static_cast<ColumnId>(std::stoi(tokens[2])),
                                 std::stoi(tokens[3]), std::stoi(tokens[4]));
      if (!ParseResiduals(tokens, 5, &query)) {
        return Fail("residual predicates must be COLUMN LO HI triplets");
      }
      Executor* executor = catalog_->executor(table);
      std::unique_ptr<PhysicalPlan> plan =
          executor->PlanStatement(Statement::Select(query));
      Result<StatementResult> result = executor->ExecutePlan(plan.get());
      if (!result.ok()) return Fail(result.status().ToString());
      out_ << ExplainPlan(*plan);
      out_ << "rows=" << result->rids.size()
           << " cost=" << result->stats.cost << "\n";
      return true;
    }

    if (command == "run") {
      if (tokens.size() < 6) return Fail("run NAME COLUMN COUNT LO HI [SEED]");
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      const ColumnId column = static_cast<ColumnId>(std::stoi(tokens[2]));
      const size_t count = std::stoull(tokens[3]);
      const Value lo = std::stoi(tokens[4]);
      const Value hi = std::stoi(tokens[5]);
      Rng rng(tokens.size() > 6 ? std::stoull(tokens[6]) : 7);
      double total_cost = 0;
      for (size_t i = 0; i < count; ++i) {
        // Each query (and each retry attempt) gets a fresh budget; a session
        // deadline bounds the individual queries, not the whole batch.
        Result<StatementResult> result = ExecuteQuery(
            table, Query::Point(column,
                                static_cast<Value>(rng.UniformInt(lo, hi))));
        if (!result.ok()) return Fail(result.status().ToString());
        total_cost += result->stats.cost;
      }
      out_ << "ok: " << count << " queries, mean cost "
           << total_cost / static_cast<double>(count) << "\n";
      return true;
    }

    if (command == "insert") {
      if (tokens.size() < 3) return Fail("insert NAME V1 [V2 ...]");
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      std::vector<Value> values;
      for (size_t i = 2; i < tokens.size(); ++i) {
        values.push_back(std::stoi(tokens[i]));
      }
      if (values.size() != table->schema().IntColumnIds().size()) {
        return Fail("value count does not match schema");
      }
      Result<StatementResult> result = catalog_->ExecuteStatement(
          table, Statement::Insert(Tuple(std::move(values), {"row"})));
      if (!result.ok()) return Fail(result.status().ToString());
      out_ << "ok: inserted at " << RidToString(result->rids.front()) << "\n";
      return true;
    }

    if (command == "update") {
      if (tokens.size() < 5) return Fail("update NAME PAGE SLOT V1 [V2 ...]");
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      const Rid rid{static_cast<PageId>(std::stoull(tokens[2])),
                    static_cast<SlotId>(std::stoul(tokens[3]))};
      std::vector<Value> values;
      for (size_t i = 4; i < tokens.size(); ++i) {
        values.push_back(std::stoi(tokens[i]));
      }
      if (values.size() != table->schema().IntColumnIds().size()) {
        return Fail("value count does not match schema");
      }
      Result<StatementResult> result = catalog_->ExecuteStatement(
          table, Statement::Update(rid, Tuple(std::move(values), {"row"})));
      if (!result.ok()) return Fail(result.status().ToString());
      out_ << "ok: updated " << RidToString(rid) << " -> "
           << RidToString(result->rids.front()) << "\n";
      return true;
    }

    if (command == "delete") {
      if (tokens.size() != 4) return Fail("delete NAME PAGE SLOT");
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      const Rid rid{static_cast<PageId>(std::stoull(tokens[2])),
                    static_cast<SlotId>(std::stoul(tokens[3]))};
      const Status status =
          catalog_->ExecuteStatement(table, Statement::Delete(rid)).status();
      if (!status.ok()) return Fail(status.ToString());
      out_ << "ok: deleted " << RidToString(rid) << "\n";
      return true;
    }

    if (command == "buffers") {
      if (catalog_->space() == nullptr) {
        out_ << "index buffer space disabled\n";
        return true;
      }
      out_ << "space: " << catalog_->space()->TotalEntries() << " entries";
      if (!catalog_->space()->Unlimited()) {
        out_ << " / " << catalog_->space()->options().max_entries;
      }
      out_ << "\n";
      for (const auto& [index, buffer] : catalog_->space()->buffers()) {
        out_ << "  " << index->table().name() << ".col" << index->column()
             << ": " << buffer->TotalEntries() << " entries, "
             << buffer->PartitionCount() << " partitions, T="
             << buffer->MeanInterval();
        if (buffer->ColdPartitionCount() > 0) {
          out_ << ", cold: " << buffer->ColdPartitionCount()
               << " partitions / " << buffer->ColdEntries() << " entries / "
               << buffer->ColdBytes() << " bytes";
        }
        out_ << "\n";
      }
      return true;
    }

    if (command == "fault") {
      if (tokens.size() < 2) {
        return Fail(
            "fault arm SEED RATE [CORRUPT_FRACTION [LATENCY_RATE "
            "[LATENCY_TICKS]]] | fault off");
      }
      FaultInjector& injector = catalog_->disk().fault_injector();
      if (tokens[1] == "off") {
        injector.Disarm();
        out_ << "ok: faults disarmed\n";
        return true;
      }
      if (tokens[1] != "arm" || tokens.size() < 4) {
        return Fail(
            "fault arm SEED RATE [CORRUPT_FRACTION [LATENCY_RATE "
            "[LATENCY_TICKS]]] | fault off");
      }
      FaultInjectorOptions options;
      options.seed = std::stoull(tokens[2]);
      options.read_fault_rate = std::stod(tokens[3]);
      options.write_fault_rate = options.read_fault_rate;
      if (tokens.size() > 4) options.corruption_fraction = std::stod(tokens[4]);
      if (tokens.size() > 5) options.latency_rate = std::stod(tokens[5]);
      if (tokens.size() > 6) options.latency_ticks = std::stoull(tokens[6]);
      injector.Arm(options);
      out_ << "ok: faults armed seed=" << options.seed
           << " rate=" << options.read_fault_rate << "\n";
      return true;
    }

    if (command == "deadline") {
      if (tokens.size() != 2) return Fail("deadline MS (0 clears)");
      deadline_ = std::chrono::milliseconds(std::stoll(tokens[1]));
      if (deadline_.count() < 0) {
        deadline_ = std::chrono::milliseconds(0);
        return Fail("deadline must be >= 0");
      }
      if (deadline_.count() == 0) {
        out_ << "ok: deadline cleared\n";
      } else {
        out_ << "ok: deadline " << deadline_.count() << " ms\n";
      }
      return true;
    }

    if (command == "stats") {
      out_ << catalog_->metrics().ToString();
      const Metrics& metrics = catalog_->metrics();
      out_ << "robustness: faults_armed="
           << (catalog_->disk().fault_injector().armed() ? "yes" : "no")
           << " faults_injected=" << metrics.Get(kMetricFaultsInjected)
           << " transient_retries=" << metrics.Get(kMetricTransientRetries)
           << " quarantined=" << metrics.Get(kMetricPartitionsQuarantined)
           << " degraded=" << metrics.Get(kMetricDegradedQueries)
           << " timed_out=" << metrics.Get(kMetricQueriesTimedOut)
           << " cancelled=" << metrics.Get(kMetricQueriesCancelled) << "\n";
      const int64_t hits = metrics.Get(kMetricBufferHits);
      const int64_t misses = metrics.Get(kMetricBufferMisses);
      const int64_t pages_read = metrics.Get(kMetricPagesRead);
      const int64_t pages_served = metrics.Get(kMetricScanPagesServed);
      out_ << "buffer: hit_rate="
           << (hits + misses == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(hits + misses))
           << " page_reuse="
           << (pages_read == 0 ? 0.0
                               : static_cast<double>(pages_served) /
                                     static_cast<double>(pages_read))
           << "\n";
      out_ << "tiering: demoted=" << metrics.Get(kMetricColdPartitionsDemoted)
           << " promoted=" << metrics.Get(kMetricColdPartitionsPromoted)
           << " cold_bytes=" << metrics.Get(kMetricColdBytes)
           << " cold_hits=" << metrics.Get(kMetricColdHits)
           << " promote_us={"
           << metrics.HistogramCopy(kMetricPromotionLatencyMicros).Summary()
           << "}\n";
      out_ << "latching: shared=" << metrics.Get(kMetricLatchSharedAcquires)
           << " exclusive=" << metrics.Get(kMetricLatchExclusiveAcquires)
           << " waits=" << metrics.Get(kMetricLatchWaits)
           << " optimistic_retries="
           << metrics.Get(kMetricLatchOptimisticRetries)
           << " optimistic_fallbacks="
           << metrics.Get(kMetricLatchOptimisticFallbacks) << " wait_us={"
           << metrics.HistogramCopy(kMetricLatchWaitMicros).Summary() << "}\n";
      return true;
    }

    if (command == "consistency") {
      if (tokens.size() != 2) return Fail("consistency NAME");
      Table* table = catalog_->GetTable(tokens[1]);
      if (table == nullptr) return Fail("no table " + tokens[1]);
      if (catalog_->space() == nullptr) {
        out_ << "ok: no space to check\n";
        return true;
      }
      // The check audits engine state; mask fault injection so it does not
      // roll the dice on its own page reads (mirrors the engine's internal
      // post-quarantine re-check).
      FaultInjector::ScopedSuspend suspend;
      const Status status = CheckSpaceConsistency(*table, *catalog_->space());
      if (!status.ok()) return Fail(status.ToString());
      out_ << "ok: consistent\n";
      return true;
    }

    if (command == "snapshot_save") {
      if (tokens.size() != 2) return Fail("snapshot_save PATH");
      const Status status = catalog_->SaveSnapshot(tokens[1]);
      if (!status.ok()) return Fail(status.ToString());
      out_ << "ok: snapshot saved to " << tokens[1] << "\n";
      return true;
    }

    if (command == "snapshot_load") {
      if (tokens.size() != 2) return Fail("snapshot_load PATH");
      Result<std::unique_ptr<Catalog>> loaded =
          Catalog::LoadSnapshot(tokens[1], catalog_->options());
      if (!loaded.ok()) return Fail(loaded.status().ToString());
      catalog_ = std::move(loaded).value();
      out_ << "ok: snapshot loaded from " << tokens[1] << "\n";
      return true;
    }

    if (command == "echo") {
      for (size_t i = 1; i < tokens.size(); ++i) {
        out_ << (i > 1 ? " " : "") << tokens[i];
      }
      out_ << "\n";
      return true;
    }
  } catch (const std::exception& e) {
    return Fail(std::string("bad argument: ") + e.what());
  }

  return Fail("unknown command " + command);
}

bool ShellSession::ExecuteShardedLine(const std::vector<std::string>& tokens) {
  const std::string& command = tokens[0];

  if (command == "create_table") {
    if (tokens.size() != 3) return Fail("create_table NAME INTCOLS");
    if (sharded_.count(tokens[1]) != 0) {
      return Fail("table " + tokens[1] + " already exists");
    }
    const int int_cols = std::stoi(tokens[2]);
    if (routing_column_ >= static_cast<ColumnId>(int_cols)) {
      return Fail("routing column out of range for " + tokens[2] +
                  " int columns");
    }
    const CatalogOptions& base = catalog_->options();
    ShardedDatabaseOptions options;
    options.router.num_shards = shard_count_;
    options.router.policy = shard_policy_;
    options.router.routing_column = routing_column_;
    options.shard.db.page_size = base.page_size;
    options.shard.db.buffer_pool_pages = base.buffer_pool_pages;
    options.shard.db.max_tuples_per_page = base.max_tuples_per_page;
    options.shard.db.space = base.space;
    options.shard.db.buffer = base.buffer;
    options.shard.db.enable_index_buffer = base.enable_index_buffer;
    options.shard.db.cost = base.cost;
    // One worker per shard service keeps the shell deterministic (FIFO
    // per shard), like the catalog path.
    options.shard.service.num_workers = 1;
    sharded_.emplace(tokens[1], std::make_unique<ShardedDatabase>(
                                    Schema::PaperSchema(int_cols, 64),
                                    options));
    out_ << "ok: sharded table " << tokens[1] << " with " << int_cols
         << " int columns on " << shard_count_ << " shards\n";
    return true;
  }

  ShardedDatabase* table =
      tokens.size() > 1 ? sharded_table(tokens[1]) : nullptr;

  if (command == "load_random") {
    if (tokens.size() < 5) return Fail("load_random NAME COUNT LO HI [SEED]");
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    const size_t count = std::stoull(tokens[2]);
    const Value lo = std::stoi(tokens[3]);
    const Value hi = std::stoi(tokens[4]);
    Rng rng(tokens.size() > 5 ? std::stoull(tokens[5]) : 1);
    const size_t int_cols = table->schema().IntColumnIds().size();
    for (size_t i = 0; i < count; ++i) {
      std::vector<Value> values;
      for (size_t c = 0; c < int_cols; ++c) {
        values.push_back(static_cast<Value>(rng.UniformInt(lo, hi)));
      }
      Result<GlobalRid> rid =
          table->LoadTuple(Tuple(std::move(values), {"row"}));
      if (!rid.ok()) return Fail(rid.status().ToString());
    }
    size_t pages = 0;
    for (size_t s = 0; s < table->ShardCount(); ++s) {
      pages += table->shard(s).db().table().PageCount();
    }
    out_ << "ok: loaded " << count << " tuples into " << tokens[1] << " ("
         << pages << " pages across " << table->ShardCount()
         << " shards)\n";
    return true;
  }

  if (command == "create_index") {
    const std::optional<IndexStructureKind> kind =
        ParseKind(tokens.size() > 5 ? tokens[5] : "btree");
    if (tokens.size() < 5 || !kind.has_value()) {
      return Fail("create_index NAME COLUMN LO HI [btree|hash]");
    }
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    const ColumnId column = static_cast<ColumnId>(std::stoi(tokens[2]));
    const Status status = table->CreatePartialIndex(
        column,
        ValueCoverage::Range(std::stoi(tokens[3]), std::stoi(tokens[4])),
        *kind);
    if (!status.ok()) return Fail(status.ToString());
    out_ << "ok: partial index on " << tokens[1] << "." << column
         << " covering [" << tokens[3] << "," << tokens[4] << "] on every shard\n";
    return true;
  }

  if (command == "attach_tuner") {
    if (tokens.size() < 3) {
      return Fail("attach_tuner NAME COLUMN [WINDOW THRESHOLD CAPACITY]");
    }
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    IndexTunerOptions options;
    if (tokens.size() > 3) options.window_size = std::stoull(tokens[3]);
    if (tokens.size() > 4) options.index_threshold = std::stoi(tokens[4]);
    if (tokens.size() > 5) options.max_indexed_values = std::stoull(tokens[5]);
    const ColumnId column = static_cast<ColumnId>(std::stoi(tokens[2]));
    for (size_t s = 0; s < table->ShardCount(); ++s) {
      const Status status = table->shard(s).db().AttachTuner(column, options);
      if (!status.ok()) return Fail(status.ToString());
    }
    out_ << "ok: tuner attached on every shard\n";
    return true;
  }

  if (command == "query" || command == "range") {
    const bool is_range = command == "range";
    const size_t base = is_range ? 5u : 4u;
    if (tokens.size() < base) {
      return Fail(is_range ? "range NAME COLUMN LO HI [COLUMN LO HI ...]"
                           : "query NAME COLUMN VALUE [COLUMN LO HI ...]");
    }
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    const ColumnId column = static_cast<ColumnId>(std::stoi(tokens[2]));
    const Value lo = std::stoi(tokens[3]);
    const Value hi = is_range ? std::stoi(tokens[4]) : lo;
    Query query = Query::Range(column, lo, hi);
    if (!ParseResiduals(tokens, base, &query)) {
      return Fail("residual predicates must be COLUMN LO HI triplets");
    }
    Result<ShardResult> result =
        ExecuteSharded(table, ShardStatement::Select(query));
    if (!result.ok()) return Fail(result.status().ToString());
    out_ << "rows=" << result->rids.size() << " cost=" << result->stats.cost
         << " scanned=" << result->stats.pages_scanned
         << " skipped=" << result->stats.pages_skipped << " legs="
         << result->legs << "/" << table->ShardCount()
         << (result->stats.used_partial_index   ? " [index]"
             : result->stats.used_index_buffer ? " [buffer]"
                                               : " [scan]")
         << "\n";
    return true;
  }

  if (command == "explain") {
    if (tokens.size() < 5) {
      return Fail("explain NAME COLUMN LO HI [COLUMN LO HI ...]");
    }
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    Query query = Query::Range(static_cast<ColumnId>(std::stoi(tokens[2])),
                               std::stoi(tokens[3]), std::stoi(tokens[4]));
    if (!ParseResiduals(tokens, 5, &query)) {
      return Fail("residual predicates must be COLUMN LO HI triplets");
    }
    Result<std::string> rendered = table->Explain(query);
    if (!rendered.ok()) return Fail(rendered.status().ToString());
    out_ << rendered.value();
    return true;
  }

  if (command == "run") {
    if (tokens.size() < 6) return Fail("run NAME COLUMN COUNT LO HI [SEED]");
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    const ColumnId column = static_cast<ColumnId>(std::stoi(tokens[2]));
    const size_t count = std::stoull(tokens[3]);
    const Value lo = std::stoi(tokens[4]);
    const Value hi = std::stoi(tokens[5]);
    Rng rng(tokens.size() > 6 ? std::stoull(tokens[6]) : 7);
    double total_cost = 0;
    for (size_t i = 0; i < count; ++i) {
      Result<ShardResult> result = ExecuteSharded(
          table, ShardStatement::Select(Query::Point(
                     column, static_cast<Value>(rng.UniformInt(lo, hi)))));
      if (!result.ok()) return Fail(result.status().ToString());
      total_cost += result->stats.cost;
    }
    out_ << "ok: " << count << " queries, mean cost "
         << total_cost / static_cast<double>(count) << "\n";
    return true;
  }

  if (command == "insert") {
    if (tokens.size() < 3) return Fail("insert NAME V1 [V2 ...]");
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    std::vector<Value> values;
    for (size_t i = 2; i < tokens.size(); ++i) {
      values.push_back(std::stoi(tokens[i]));
    }
    if (values.size() != table->schema().IntColumnIds().size()) {
      return Fail("value count does not match schema");
    }
    Result<ShardResult> result = ExecuteSharded(
        table, ShardStatement::Insert(Tuple(std::move(values), {"row"})));
    if (!result.ok()) return Fail(result.status().ToString());
    out_ << "ok: inserted at " << GlobalRidToString(result->rids.at(0))
         << "\n";
    return true;
  }

  if (command == "update") {
    if (tokens.size() < 6) {
      return Fail("update NAME SHARD PAGE SLOT V1 [V2 ...]");
    }
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    const GlobalRid target{
        static_cast<uint32_t>(std::stoul(tokens[2])),
        Rid{static_cast<PageId>(std::stoull(tokens[3])),
            static_cast<SlotId>(std::stoul(tokens[4]))}};
    std::vector<Value> values;
    for (size_t i = 5; i < tokens.size(); ++i) {
      values.push_back(std::stoi(tokens[i]));
    }
    if (values.size() != table->schema().IntColumnIds().size()) {
      return Fail("value count does not match schema");
    }
    Result<ShardResult> result = ExecuteSharded(
        table,
        ShardStatement::Update(target, Tuple(std::move(values), {"row"})));
    if (!result.ok()) return Fail(result.status().ToString());
    out_ << "ok: updated " << GlobalRidToString(target) << " -> "
         << GlobalRidToString(result->rids.at(0))
         << (result->legs > 1 ? " (migrated)" : "") << "\n";
    return true;
  }

  if (command == "delete") {
    if (tokens.size() != 5) return Fail("delete NAME SHARD PAGE SLOT");
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    const GlobalRid target{
        static_cast<uint32_t>(std::stoul(tokens[2])),
        Rid{static_cast<PageId>(std::stoull(tokens[3])),
            static_cast<SlotId>(std::stoul(tokens[4]))}};
    Result<ShardResult> result =
        ExecuteSharded(table, ShardStatement::Delete(target));
    if (!result.ok()) return Fail(result.status().ToString());
    out_ << "ok: deleted " << GlobalRidToString(target) << "\n";
    return true;
  }

  if (command == "fault") {
    if (tokens.size() < 2 ||
        (tokens[1] == "arm" && tokens.size() < 4) ||
        (tokens[1] != "arm" && tokens[1] != "off")) {
      return Fail(
          "fault arm SEED RATE [CORRUPT_FRACTION [LATENCY_RATE "
          "[LATENCY_TICKS]]] | fault off");
    }
    for (auto& [name, entry] : sharded_) {
      for (size_t s = 0; s < entry->ShardCount(); ++s) {
        FaultInjector& injector =
            entry->shard(s).db().catalog().disk().fault_injector();
        if (tokens[1] == "off") {
          injector.Disarm();
          continue;
        }
        FaultInjectorOptions options;
        // Distinct per-shard seeds: same command, decorrelated fault
        // streams across the fleet.
        options.seed = std::stoull(tokens[2]) + s;
        options.read_fault_rate = std::stod(tokens[3]);
        options.write_fault_rate = options.read_fault_rate;
        if (tokens.size() > 4) {
          options.corruption_fraction = std::stod(tokens[4]);
        }
        if (tokens.size() > 5) options.latency_rate = std::stod(tokens[5]);
        if (tokens.size() > 6) options.latency_ticks = std::stoull(tokens[6]);
        injector.Arm(options);
      }
    }
    if (tokens[1] == "off") {
      out_ << "ok: faults disarmed on every shard\n";
    } else {
      out_ << "ok: faults armed on every shard, base seed " << tokens[2]
           << " rate=" << tokens[3] << "\n";
    }
    return true;
  }

  if (command == "shardfault") {
    // Whole-shard outages, the fleet-level sibling of `fault`:
    //   shardfault NAME SHARD crash|hang|revive
    //   shardfault NAME SHARD brownout ERR_RATE LAT_RATE [LAT_US]
    if (tokens.size() < 4) {
      return Fail(
          "shardfault NAME SHARD crash|hang|revive | shardfault NAME SHARD "
          "brownout ERR_RATE LAT_RATE [LAT_US]");
    }
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    const size_t shard = std::stoull(tokens[2]);
    if (shard >= table->ShardCount()) {
      return Fail("shard " + tokens[2] + " out of range");
    }
    ShardFaultInjector& injector = table->fault_injector();
    const std::string& outage = tokens[3];
    if (outage == "crash") {
      injector.Crash(shard);
    } else if (outage == "hang") {
      injector.Hang(shard);
    } else if (outage == "revive") {
      injector.Revive(shard);
    } else if (outage == "brownout") {
      if (tokens.size() < 6) {
        return Fail("shardfault NAME SHARD brownout ERR_RATE LAT_RATE [LAT_US]");
      }
      BrownoutOptions options;
      options.error_rate = std::stod(tokens[4]);
      options.latency_rate = std::stod(tokens[5]);
      if (tokens.size() > 6) {
        options.latency = std::chrono::microseconds(std::stoull(tokens[6]));
      }
      injector.Brownout(shard, options);
    } else {
      return Fail("outage must be crash, hang, brownout, or revive");
    }
    out_ << "ok: shard " << shard << " "
         << ShardOutageName(injector.outage(shard)) << "\n";
    return true;
  }

  if (command == "restart") {
    if (tokens.size() != 3) return Fail("restart NAME SHARD");
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    const size_t shard = std::stoull(tokens[2]);
    if (shard >= table->ShardCount()) {
      return Fail("shard " + tokens[2] + " out of range");
    }
    const Status status = table->RestartShard(shard);
    if (!status.ok()) return Fail(status.ToString());
    out_ << "ok: shard " << shard
         << " restarted (empty Index Buffers, breaker reset)\n";
    return true;
  }

  if (command == "buffers") {
    for (const auto& [name, entry] : sharded_) {
      out_ << name << ":\n";
      for (size_t s = 0; s < entry->ShardCount(); ++s) {
        const IndexBufferSpace* space = entry->shard(s).db().space();
        out_ << "  shard " << s << ": ";
        if (space == nullptr) {
          out_ << "index buffer space disabled\n";
          continue;
        }
        out_ << space->TotalEntries() << " entries";
        if (!space->Unlimited()) out_ << " / " << space->options().max_entries;
        if (space->ColdPartitionCount() > 0) {
          out_ << ", cold: " << space->ColdPartitionCount()
               << " partitions / " << space->ColdEntries() << " entries / "
               << space->ColdBytes() << " bytes";
        }
        out_ << "\n";
      }
    }
    return true;
  }

  if (command == "stats") {
    for (const auto& [name, entry] : sharded_) {
      ShardedDatabase& db = *entry;
      out_ << name << " (" << db.ShardCount() << " shards):\n";
      for (size_t s = 0; s < db.ShardCount(); ++s) {
        const Metrics& metrics = db.shard(s).metrics();
        out_ << "  shard " << s << ": pages_read="
             << metrics.Get(kMetricPagesRead)
             << " executed=" << metrics.Get(kMetricServiceExecuted)
             << " dml=" << metrics.Get(kMetricDmlStatements)
             << " faults=" << metrics.Get(kMetricFaultsInjected)
             << " retries=" << metrics.Get(kMetricTransientRetries)
             << " latch_waits=" << metrics.Get(kMetricLatchWaits)
             << " optimistic_retries="
             << metrics.Get(kMetricLatchOptimisticRetries)
             << " demoted=" << metrics.Get(kMetricColdPartitionsDemoted)
             << " promoted=" << metrics.Get(kMetricColdPartitionsPromoted)
             << " cold_hits=" << metrics.Get(kMetricColdHits) << "\n";
      }
      for (size_t s = 0; s < db.ShardCount(); ++s) {
        const ShardHealthSnapshot health = db.health().snapshot(s);
        out_ << "  shard " << s << " health: outage="
             << ShardOutageName(db.fault_injector().outage(s))
             << " breaker=" << BreakerStateName(health.state)
             << " samples=" << health.samples
             << " failures=" << health.failures
             << " opened=" << health.times_opened << "\n";
      }
      out_ << "  fleet:\n";
      for (const auto& [counter, value] : db.FleetCounters()) {
        out_ << "    " << counter << "=" << value << "\n";
      }
    }
    return true;
  }

  if (command == "consistency") {
    if (tokens.size() != 2) return Fail("consistency NAME");
    if (table == nullptr) return Fail("no sharded table " + tokens[1]);
    FaultInjector::ScopedSuspend suspend;
    for (size_t s = 0; s < table->ShardCount(); ++s) {
      Database& db = table->shard(s).db();
      if (db.space() == nullptr) continue;
      const Status status = CheckSpaceConsistency(db.table(), *db.space());
      if (!status.ok()) {
        return Fail("shard " + std::to_string(s) + ": " + status.ToString());
      }
    }
    out_ << "ok: every shard consistent\n";
    return true;
  }

  if (command == "snapshot_save" || command == "snapshot_load") {
    return Fail("snapshots are single-node-only; run `shards off` first");
  }

  return Fail("unknown command " + command);
}

}  // namespace aib::tools
