// DML through the statement pipeline, service-first: the Table I edge
// cases (relocation across pages, key moves across the coverage boundary,
// pages flipping fully-indexed) executed as QueryService statements and
// checked against a serial facade-driven oracle, plus the acceptance tests
// of the refactor itself — both entry points share one maintenance code
// path, serial and morsel-parallel scans stay bit-identical with writers
// in the stream, and a multi-threaded mixed read/write stress for TSan.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "core/consistency.h"
#include "exec/morsel.h"
#include "service/query_service.h"
#include "workload/workload_gen.h"

namespace aib {
namespace {

using ::aib::testing::AffectedRid;
using ::aib::testing::GroundTruth;
using ::aib::testing::MakeSmallPaperDb;
using ::aib::testing::MakeTuple;
using ::aib::testing::Sorted;

/// Canonical serialization of every piece of adaptive state Table I
/// maintains — partial-index entries, Index Buffer entries, C[p], and the
/// partition count, per column. Two databases that executed the same
/// logical operations must fingerprint identically no matter which entry
/// point (facade or service) carried the statements.
std::string SpaceFingerprint(const Database& db) {
  constexpr Value kLo = std::numeric_limits<Value>::min();
  constexpr Value kHi = std::numeric_limits<Value>::max();
  std::ostringstream out;
  for (ColumnId column = 0; column < 3; ++column) {
    const PartialIndex* index = db.GetIndex(column);
    if (index == nullptr) continue;
    out << "col" << column << "|pidx:";
    index->Scan(kLo, kHi, [&](Value v, const Rid& rid) {
      out << v << "@" << RidToString(rid) << ";";
    });
    const IndexBuffer* buffer = db.GetBuffer(column);
    if (buffer == nullptr) {
      out << "\n";
      continue;
    }
    out << "|ibuf:";
    buffer->Scan(kLo, kHi, [&](Value v, const Rid& rid) {
      out << v << "@" << RidToString(rid) << ";";
    });
    out << "|C:";
    for (size_t page = 0; page < buffer->counters().size(); ++page) {
      out << buffer->counters().Get(page) << ",";
    }
    out << "|parts:" << buffer->PartitionCount() << "\n";
  }
  return out.str();
}

/// The explain-style deterministic ladder: 24 tuples, 4 per page (6
/// pages), col0 = 1..24 ascending, col1 = 100 + col0, partial index on
/// col0 covering [1,10]. Page p holds col0 values 4p+1..4p+4.
std::unique_ptr<Database> MakeLadderDb() {
  DatabaseOptions options;
  options.max_tuples_per_page = 4;
  auto db = std::make_unique<Database>(Schema::PaperSchema(2, 256), options);
  for (Value v = 1; v <= 24; ++v) {
    EXPECT_TRUE(db->LoadTuple(Tuple({v, 100 + v}, {"p"})).ok());
  }
  EXPECT_TRUE(db->CreatePartialIndex(0, ValueCoverage::Range(1, 10)).ok());
  EXPECT_EQ(db->table().PageCount(), 6u);
  return db;
}

TEST(DmlStatementTest, DirectExecutorCallReportsRowsAffected) {
  auto db = MakeLadderDb();
  Executor* executor = db->executor();
  // Covered and uncovered selects affect no rows, whatever they return.
  for (Value v : {5, 20}) {
    Result<StatementResult> select =
        executor->ExecuteStatement(Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(select.ok());
    EXPECT_EQ(select->rids.size(), 1u);
    EXPECT_EQ(select->rows_affected, 0u);
  }
  Result<StatementResult> insert =
      executor->ExecuteStatement(Statement::Insert(Tuple({30, 130}, {"p"})));
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->rows_affected, 1u);
  Result<StatementResult> update = executor->ExecuteStatement(
      Statement::Update(insert->rids.front(), Tuple({31, 131}, {"p"})));
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->rows_affected, 1u);
  Result<StatementResult> remove =
      executor->ExecuteStatement(Statement::Delete(update->rids.front()));
  ASSERT_TRUE(remove.ok());
  EXPECT_EQ(remove->rows_affected, 1u);
}

TEST(DmlStatementTest, UpdateRelocatingAcrossPagesMatchesSerialOracle) {
  auto db = MakeLadderDb();
  auto oracle = MakeLadderDb();
  QueryServiceOptions service_options;
  service_options.num_workers = 2;
  QueryService service(db->executor(), service_options);

  // Warm both buffers identically: the first miss indexes every uncovered
  // tuple (values 11..24), so value 12's page 2 carries C[2] = 0.
  ASSERT_TRUE(
      service.ExecuteStatement(Statement::Select(Query::Point(0, 20))).ok());
  ASSERT_TRUE(
      oracle->ExecuteStatement(Statement::Select(Query::Point(0, 20))).ok());

  // col0 = 12 sits at (2,3), buffered. The fat payload no longer fits the
  // slot, so the update relocates the tuple to a fresh page — the
  // cross-page, cross-partition cell of Table I.
  const Tuple fat({12, 112}, {std::string(200, 'q')});
  Result<StatementResult> via_service =
      service.ExecuteStatement(Statement::Update(Rid{2, 3}, fat));
  Result<Rid> via_oracle =
      AffectedRid(oracle->ExecuteStatement(Statement::Update(Rid{2, 3}, fat)));
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();
  ASSERT_TRUE(via_oracle.ok());
  ASSERT_EQ(via_service->rids.size(), 1u);
  EXPECT_EQ(via_service->rows_affected, 1u);
  const Rid new_rid = via_service->rids.front();
  EXPECT_EQ(new_rid, via_oracle.value());
  EXPECT_NE(new_rid, (Rid{2, 3}));
  Result<size_t> new_page = db->table().PageNumberOf(new_rid);
  ASSERT_TRUE(new_page.ok());
  EXPECT_NE(new_page.value(), 2u);

  // The vacated page stays fully indexed; the landing page gained one
  // unindexed (uncovered, unbuffered) tuple.
  const IndexBuffer* buffer = db->GetBuffer(0);
  ASSERT_NE(buffer, nullptr);
  EXPECT_EQ(buffer->counters().Get(2), 0u);
  EXPECT_EQ(buffer->counters().Get(new_page.value()), 1u);

  // Re-reading the moved value is itself an indexing scan (the landing
  // page has C > 0), so mirror it on the oracle before fingerprinting.
  Result<StatementResult> reread =
      service.ExecuteStatement(Statement::Select(Query::Point(0, 12)));
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(Sorted(reread->rids), Sorted(GroundTruth(*db, 0, 12, 12)));
  ASSERT_TRUE(
      oracle->ExecuteStatement(Statement::Select(Query::Point(0, 12))).ok());

  ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());
  ASSERT_TRUE(CheckSpaceConsistency(oracle->table(), *oracle->space()).ok());
  EXPECT_EQ(SpaceFingerprint(*db), SpaceFingerprint(*oracle));
}

TEST(DmlStatementTest, UpdateAcrossCoverageBoundaryMatchesSerialOracle) {
  auto db = MakeLadderDb();
  auto oracle = MakeLadderDb();
  QueryServiceOptions service_options;
  service_options.num_workers = 2;
  QueryService service(db->executor(), service_options);

  const IndexBuffer* buffer = db->GetBuffer(0);
  ASSERT_NE(buffer, nullptr);
  ASSERT_EQ(buffer->counters().Get(4), 4u);  // values 17..20, all uncovered

  // Uncovered -> covered: the tuple enters the partial index and stops
  // counting against C[p].
  const Tuple covered({5, 120}, {"p"});
  Result<StatementResult> in =
      service.ExecuteStatement(Statement::Update(Rid{4, 3}, covered));
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  ASSERT_TRUE(
      oracle->ExecuteStatement(Statement::Update(Rid{4, 3}, covered)).ok());
  EXPECT_EQ(in->rids.front(), (Rid{4, 3}));  // same footprint: in place
  EXPECT_EQ(buffer->counters().Get(4), 3u);
  Result<StatementResult> probe =
      service.ExecuteStatement(Statement::Select(Query::Point(0, 5)));
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->rids.size(), 2u);
  EXPECT_EQ(Sorted(probe->rids), Sorted(GroundTruth(*db, 0, 5, 5)));
  ASSERT_TRUE(
      oracle->ExecuteStatement(Statement::Select(Query::Point(0, 5))).ok());

  // Covered -> uncovered: the entry leaves the partial index and counts
  // against C[p] again.
  const Tuple uncovered({30, 120}, {"p"});
  Result<StatementResult> out =
      service.ExecuteStatement(Statement::Update(Rid{4, 3}, uncovered));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(
      oracle->ExecuteStatement(Statement::Update(Rid{4, 3}, uncovered)).ok());
  EXPECT_EQ(buffer->counters().Get(4), 4u);
  Result<StatementResult> moved =
      service.ExecuteStatement(Statement::Select(Query::Point(0, 30)));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(Sorted(moved->rids), Sorted(GroundTruth(*db, 0, 30, 30)));
  Result<StatementResult> back =
      service.ExecuteStatement(Statement::Select(Query::Point(0, 5)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rids.size(), 1u);

  // Mirror the two reads on the oracle so OnQuery history advances alike.
  ASSERT_TRUE(
      oracle->ExecuteStatement(Statement::Select(Query::Point(0, 30))).ok());
  ASSERT_TRUE(
      oracle->ExecuteStatement(Statement::Select(Query::Point(0, 5))).ok());
  ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());
  EXPECT_EQ(SpaceFingerprint(*db), SpaceFingerprint(*oracle));
}

TEST(DmlStatementTest, DeleteLastUnindexedTupleFlipsPageFullyIndexed) {
  auto db = MakeLadderDb();
  QueryServiceOptions service_options;
  service_options.num_workers = 2;
  QueryService service(db->executor(), service_options);

  // Page 2 holds 9,10 (covered) and 11,12 (uncovered): C[2] = 2. Deleting
  // both uncovered tuples flips the page fully indexed with no scan ever
  // having touched it.
  const IndexBuffer* buffer = db->GetBuffer(0);
  ASSERT_NE(buffer, nullptr);
  ASSERT_EQ(buffer->counters().Get(2), 2u);
  Result<StatementResult> first =
      service.ExecuteStatement(Statement::Delete(Rid{2, 2}));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->rows_affected, 1u);
  EXPECT_EQ(buffer->counters().Get(2), 1u);
  Result<StatementResult> second =
      service.ExecuteStatement(Statement::Delete(Rid{2, 3}));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(buffer->counters().Get(2), 0u);
  EXPECT_EQ(buffer->counters().FullyIndexedPages(), 3u);  // pages 0, 1, 2

  // The next indexing scan must skip the flipped page along with the two
  // born-covered pages — Algorithm 1 trusts C[p] maintained by deletes.
  Result<StatementResult> miss =
      service.ExecuteStatement(Statement::Select(Query::Point(0, 20)));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->stats.pages_skipped, 3u);
  EXPECT_EQ(miss->stats.pages_scanned, 3u);
  EXPECT_EQ(Sorted(miss->rids), Sorted(GroundTruth(*db, 0, 20, 20)));
  ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());
}

/// The refactor's acceptance test: the same logical operation stream
/// driven once through the Database facade and once through QueryService
/// statements must land both databases in bit-identical adaptive state —
/// there is exactly one maintenance code path behind both doors.
TEST(DmlStatementTest, FacadeAndServiceShareOneMaintenancePath) {
  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 2000;
  options.space.max_pages_per_scan = 30;
  auto facade_db = MakeSmallPaperDb(800, 300, 30, options);
  auto service_db = MakeSmallPaperDb(800, 300, 30, options);
  ASSERT_NE(facade_db, nullptr);
  ASSERT_NE(service_db, nullptr);
  QueryServiceOptions service_options;
  service_options.num_workers = 1;  // deterministic FIFO mode
  QueryService service(service_db->executor(), service_options);

  std::vector<Rid> facade_live;
  std::vector<Rid> service_live;
  Rng rng(2026);
  for (int op = 0; op < 200; ++op) {
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind < 5) {
      const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
      const Value v = static_cast<Value>(rng.UniformInt(1, 300));
      Result<StatementResult> a = facade_db->ExecuteStatement(
          Statement::Select(Query::Point(column, v)));
      Result<StatementResult> b =
          service.ExecuteStatement(Statement::Select(Query::Point(column, v)));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->rids, b->rids) << "op " << op;
    } else if (kind < 7) {
      const Tuple tuple =
          MakeTuple(static_cast<Value>(rng.UniformInt(1, 300)),
                    static_cast<Value>(rng.UniformInt(1, 300)),
                    static_cast<Value>(rng.UniformInt(1, 300)));
      Result<StatementResult> a =
          facade_db->ExecuteStatement(Statement::Insert(tuple));
      Result<StatementResult> b =
          service.ExecuteStatement(Statement::Insert(tuple));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->rids.front(), b->rids.front()) << "op " << op;
      facade_live.push_back(a->rids.front());
      service_live.push_back(b->rids.front());
    } else if (kind < 9) {
      if (facade_live.empty()) continue;
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, facade_live.size() - 1));
      const Value v = static_cast<Value>(rng.UniformInt(1, 300));
      const Tuple tuple = MakeTuple(v, 301 - v, v / 2 + 1,
                                    std::string(1 + v % 40, 'u'));
      Result<StatementResult> a = facade_db->ExecuteStatement(
          Statement::Update(facade_live[pick], tuple));
      Result<StatementResult> b = service.ExecuteStatement(
          Statement::Update(service_live[pick], tuple));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->rids.front(), b->rids.front()) << "op " << op;
      facade_live[pick] = a->rids.front();
      service_live[pick] = b->rids.front();
    } else {
      if (facade_live.empty()) continue;
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, facade_live.size() - 1));
      ASSERT_TRUE(
          facade_db->ExecuteStatement(Statement::Delete(facade_live[pick]))
              .ok());
      Result<StatementResult> b = service.ExecuteStatement(
          Statement::Delete(service_live[pick]));
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      facade_live[pick] = facade_live.back();
      facade_live.pop_back();
      service_live[pick] = service_live.back();
      service_live.pop_back();
    }
    ASSERT_EQ(SpaceFingerprint(*facade_db), SpaceFingerprint(*service_db))
        << "first divergence at op " << op << " kind " << kind;
  }

  ASSERT_TRUE(
      CheckSpaceConsistency(facade_db->table(), *facade_db->space()).ok());
  ASSERT_TRUE(
      CheckSpaceConsistency(service_db->table(), *service_db->space()).ok());
  EXPECT_EQ(SpaceFingerprint(*facade_db), SpaceFingerprint(*service_db));
  EXPECT_GT(service_db->metrics().Get(kMetricDmlStatements), 0);
}

/// Serial-vs-parallel scan bit-identity with writers in the stream: the
/// same mixed workload through two one-worker services, one with serial
/// scans and one whose executor fans morsels out to 4 scan workers, must
/// produce identical rids, stats, and final adaptive state.
TEST(DmlStatementTest, SerialVsParallelScansIdenticalWithDml) {
  MixedWorkloadOptions mixed;
  mixed.num_statements = 300;
  mixed.write_fraction = 0.3;
  mixed.values_per_tuple = 3;
  mixed.write_lo = 1;
  mixed.write_hi = 300;
  mixed.victim_zipf_theta = 0.6;
  mixed.read_mix = {ColumnMix{.column = 0, .weight = 1.0, .hit_rate = 0.3,
                              .covered_lo = 1, .covered_hi = 30,
                              .uncovered_lo = 31, .uncovered_hi = 300},
                    ColumnMix{.column = 1, .weight = 1.0, .hit_rate = 0.3,
                              .covered_lo = 1, .covered_hi = 30,
                              .uncovered_lo = 31, .uncovered_hi = 300}};

  auto run = [&](bool parallel) {
    MorselDispatcher four_way(3);  // outlives the executor that borrows it
    DatabaseOptions options;
    options.max_tuples_per_page = 10;
    options.space.max_entries = 2000;
    options.space.max_pages_per_scan = 30;
    auto db = MakeSmallPaperDb(800, 300, 30, options);
    EXPECT_NE(db, nullptr);
    if (parallel) db->executor()->SetParallelScan(&four_way);
    QueryServiceOptions service_options;
    service_options.num_workers = 1;
    QueryService service(db->executor(), service_options);

    std::ostringstream trace;
    std::vector<Rid> live;
    MixedWorkloadGenerator gen(mixed, 7);
    while (std::optional<MixedOp> op = gen.Next()) {
      if (op->kind == StatementKind::kSelect) {
        Result<StatementResult> result =
            service.ExecuteStatement(Statement::Select(op->query));
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) continue;
        trace << "q";
        for (const Rid& rid : result->rids) trace << RidToString(rid);
        trace << " scanned=" << result->stats.pages_scanned
              << " skipped=" << result->stats.pages_skipped
              << " fetched=" << result->stats.pages_fetched
              << " added=" << result->stats.entries_added << "\n";
        continue;
      }
      Statement statement;
      if (op->kind == StatementKind::kInsert) {
        statement = Statement::Insert(Tuple(op->values, {"p"}));
      } else {
        const Rid victim = live[live.size() - op->victim_rank];
        statement = op->kind == StatementKind::kUpdate
                        ? Statement::Update(victim, Tuple(op->values, {"p"}))
                        : Statement::Delete(victim);
      }
      Result<StatementResult> result = service.ExecuteStatement(statement);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) continue;
      if (op->kind == StatementKind::kInsert) {
        live.push_back(result->rids.front());
      } else if (op->kind == StatementKind::kUpdate) {
        live[live.size() - op->victim_rank] = result->rids.front();
      } else {
        live.erase(live.end() - static_cast<ptrdiff_t>(op->victim_rank));
      }
      trace << StatementKindName(statement.kind)
            << RidToString(result->rids.front()) << "\n";
    }
    EXPECT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());
    trace << SpaceFingerprint(*db);
    return trace.str();
  };

  const std::string serial = run(false);
  const std::string parallel = run(true);
  EXPECT_EQ(serial, parallel);
}

/// Multi-threaded mixed read/write soak through one shared service: three
/// writer threads mutating disjoint row sets and three reader threads
/// querying concurrently. Run under TSan (ctest -L concurrency) this is
/// the race detector for the two-latch write path; in any build it must
/// end in a consistent adaptive state with exact query results.
TEST(DmlStatementTest, MixedReadWriteStress) {
  DatabaseOptions options;
  options.max_tuples_per_page = 10;
  options.space.max_entries = 3000;
  options.space.max_pages_per_scan = 40;
  auto db = MakeSmallPaperDb(1500, 300, 30, options);
  ASSERT_NE(db, nullptr);
  QueryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 64;
  QueryService service(db->executor(), service_options);

  auto execute_statement = [&](const Statement& statement) {
    // Busy means admission backpressure — retry like a real client.
    while (true) {
      Result<StatementResult> result = service.ExecuteStatement(statement);
      if (result.ok() || !result.status().IsBusy()) return result;
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int writer = 0; writer < 3; ++writer) {
    threads.emplace_back([&, writer] {
      Rng rng(1000 + writer);
      std::vector<Rid> mine;  // rids only this thread targets
      for (int op = 0; op < 120; ++op) {
        const int kind = static_cast<int>(rng.UniformInt(0, 2));
        if (kind == 0 || mine.empty()) {
          const Tuple tuple =
              MakeTuple(static_cast<Value>(rng.UniformInt(1, 300)),
                        static_cast<Value>(rng.UniformInt(1, 300)),
                        static_cast<Value>(rng.UniformInt(1, 300)));
          Result<StatementResult> result =
              execute_statement(Statement::Insert(tuple));
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (result.ok()) mine.push_back(result->rids.front());
        } else if (kind == 1) {
          const size_t pick =
              static_cast<size_t>(rng.UniformInt(0, mine.size() - 1));
          const Value v = static_cast<Value>(rng.UniformInt(1, 300));
          const Tuple tuple = MakeTuple(v, 301 - v, v / 3 + 1,
                                        std::string(1 + v % 50, 'w'));
          Result<StatementResult> result =
              execute_statement(Statement::Update(mine[pick], tuple));
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (result.ok()) mine[pick] = result->rids.front();
        } else {
          const size_t pick =
              static_cast<size_t>(rng.UniformInt(0, mine.size() - 1));
          Result<StatementResult> result =
              execute_statement(Statement::Delete(mine[pick]));
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (result.ok()) {
            mine[pick] = mine.back();
            mine.pop_back();
          }
        }
      }
    });
  }
  for (int reader = 0; reader < 3; ++reader) {
    threads.emplace_back([&, reader] {
      Rng rng(2000 + reader);
      for (int op = 0; op < 200; ++op) {
        const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
        const Value v = static_cast<Value>(rng.UniformInt(1, 300));
        while (true) {
          Result<StatementResult> result = service.ExecuteStatement(
              Statement::Select(Query::Point(column, v)));
          if (result.ok()) break;
          EXPECT_TRUE(result.status().IsBusy())
              << result.status().ToString();
          if (!result.status().IsBusy()) break;
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ASSERT_TRUE(CheckSpaceConsistency(db->table(), *db->space()).ok());
  Rng rng(77);
  for (int probe = 0; probe < 30; ++probe) {
    const ColumnId column = static_cast<ColumnId>(rng.UniformInt(0, 2));
    const Value v = static_cast<Value>(rng.UniformInt(1, 300));
    Result<StatementResult> result =
        service.ExecuteStatement(Statement::Select(Query::Point(column, v)));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Sorted(result->rids), Sorted(GroundTruth(*db, column, v, v)));
  }
  EXPECT_GT(db->metrics().Get(kMetricDmlStatements), 0);
}

}  // namespace
}  // namespace aib
