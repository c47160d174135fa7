#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/consistency.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "workload/database.h"

namespace aib {
namespace {

// One inserter grows the page directory while readers translate, without
// any lock, every rid already handed out — the way a covered probe
// translates the rids an index lookup returns while DML appends pages.
TEST(HeapFileConcurrencyTest, ReadersTranslatePublishedRidsWhileItGrows) {
  constexpr int kRows = 3000;
  constexpr int kReaders = 3;
  const Schema schema = Schema::PaperSchema(1, 64);
  DiskManager disk(512);
  BufferPool pool(&disk, 64);
  HeapFile heap(&disk, &pool, &schema);
  // Rids are written before `published` covers them (release/acquire),
  // as an index publishes an entry only after its heap insert returned.
  std::vector<Rid> rids(kRows);
  std::atomic<int> published{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int seen = 0;
      while (seen < kRows) {
        const int n = published.load(std::memory_order_acquire);
        for (int i = 0; i < n; ++i) {
          const Result<size_t> index = heap.PageIndexOf(rids[i].page_id);
          if (!index.ok() || index.value() >= heap.PageCount() ||
              heap.PageIdAt(index.value()) != rids[i].page_id) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        seen = n;
        std::this_thread::yield();
      }
    });
  }
  for (int i = 0; i < kRows; ++i) {
    Result<Rid> rid = heap.Insert(Tuple({i}, {std::string(40, 'x')}));
    ASSERT_TRUE(rid.ok());
    rids[i] = rid.value();
    published.store(i + 1, std::memory_order_release);
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(heap.PageCount(), 200u);  // the directory grew across segments
}

// Deletes free room on the table's old pages and inserts (and updates that
// outgrow their slot) land there, compacting pages that also hold rows the
// readers look up, while covered probes, uncovered indexing scans and full
// scans run. The deletes come from their own thread, as they take no
// append mutex, so they list pages while an insert holds its chosen one.
// Every answer is checked against a row-set oracle: the rows with a column-0
// value in [1, 600] are never written, so a read of such a value must
// return exactly its loaded rids, whatever the writer is compacting.
TEST(HeapFileConcurrencyTest, ReclaimedPagesServeConcurrentProbesAndScans) {
  constexpr Value kStableMax = 600;     // read, never written
  constexpr Value kDoomedBase = 1000;   // loaded, then deleted
  constexpr Value kChurnBase = 2000;    // inserted and updated by the writer
  constexpr int kRows = 1200;
  constexpr int kWriterOps = 1000;
  constexpr size_t kDeletes = 400;
  constexpr int kReaders = 3;

  DatabaseOptions options;
  options.page_size = 1024;
  Database db(Schema::PaperSchema(2, 64), options);
  Rng rng(31337);
  const auto payload = [&](Rng& r) {
    return std::string(static_cast<size_t>(r.UniformInt(1, 48)), 'p');
  };
  // Stable and doomed rows alternate, so every page holds both.
  std::map<Value, std::vector<Rid>> oracle;
  std::vector<Rid> doomed;
  for (int i = 0; i < kRows; ++i) {
    const bool stable = i % 2 == 0;
    const Value v = stable ? static_cast<Value>(rng.UniformInt(1, kStableMax))
                           : kDoomedBase + i;
    Result<Rid> rid = db.LoadTuple(Tuple({v, v}, {payload(rng)}));
    ASSERT_TRUE(rid.ok());
    (stable ? oracle[v] : doomed).push_back(rid.value());
  }
  for (auto& [v, rids] : oracle) std::sort(rids.begin(), rids.end());
  ASSERT_TRUE(db.CreatePartialIndex(0, ValueCoverage::Range(1, 60)).ok());

  std::atomic<bool> writing{true};
  std::atomic<int> wrong_answers{0};
  std::atomic<int> failed_statements{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng mine(7 + r);
      // At least a few reads after the writer stops, so every reader's
      // loop runs under TSan however the threads are scheduled.
      for (int after = 0; after < 4; after += writing.load() ? 0 : 1) {
        // Covered probes ([1, 60]) and uncovered indexing scans of column
        // 0, and full scans of column 1 (no index; a stable row holds v in
        // both columns), which read every page the writer compacts.
        const Value v = static_cast<Value>(
            r == 0 ? mine.UniformInt(1, 60) : mine.UniformInt(61, kStableMax));
        const ColumnId column = r == 2 ? 1 : 0;
        Result<StatementResult> result =
            db.ExecuteStatement(Statement::Select(Query::Point(column, v)));
        if (!result.ok()) {
          failed_statements.fetch_add(1);
          continue;
        }
        reads.fetch_add(1);
        std::vector<Rid> got = result->rids;
        std::sort(got.begin(), got.end());
        const auto it = oracle.find(v);
        if (got != (it == oracle.end() ? std::vector<Rid>{} : it->second)) {
          wrong_answers.fetch_add(1);
        }
      }
    });
  }

  // The deleter: deletes doomed rows in random order.
  std::thread deleter([&] {
    Rng mine(99);
    for (size_t i = 0; i < kDeletes; ++i) {
      const size_t pick =
          static_cast<size_t>(mine.UniformInt(0, doomed.size() - 1));
      if (!db.ExecuteStatement(Statement::Delete(doomed[pick])).ok()) {
        failed_statements.fetch_add(1);
      }
      doomed[pick] = doomed.back();
      doomed.pop_back();
    }
  });
  // The writer: inserts churn rows of random sizes, and updates churn rows
  // to random sizes (a growing one relocates through the insert path).
  std::map<Rid, Value> churn;
  size_t older_page_inserts = 0;
  for (int op = 0; op < kWriterOps; ++op) {
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    if (kind < 2 || churn.empty()) {
      const Value v = kChurnBase + op;
      Result<StatementResult> inserted = db.ExecuteStatement(
          Statement::Insert(Tuple({v, v}, {payload(rng)})));
      if (!inserted.ok()) {
        failed_statements.fetch_add(1);
        continue;
      }
      const Rid rid = inserted->rids.front();
      churn[rid] = v;
      if (db.table().PageNumberOf(rid).value() + 1 < db.table().PageCount()) {
        ++older_page_inserts;
      }
    } else {
      auto it = churn.begin();
      std::advance(it, rng.UniformInt(0, churn.size() - 1));
      const Value v = it->second;
      Result<StatementResult> updated = db.ExecuteStatement(
          Statement::Update(it->first, Tuple({v, v + 1}, {payload(rng)})));
      if (!updated.ok()) {
        failed_statements.fetch_add(1);
        continue;
      }
      churn.erase(it);
      churn[updated->rids.front()] = v;
    }
  }
  deleter.join();
  writing.store(false);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failed_statements.load(), 0);
  EXPECT_EQ(wrong_answers.load(), 0) << "of " << reads.load() << " reads";
  EXPECT_GT(older_page_inserts, 50u);
  // Quiesced: the whole row set, churn rows included, and Table I.
  for (const auto& [rid, v] : churn) oracle[v].push_back(rid);
  for (const Rid& rid : doomed) {
    oracle[db.table().Get(rid)->IntValue(db.table().schema(), 0)]
        .push_back(rid);
  }
  for (auto& [v, rids] : oracle) {
    std::sort(rids.begin(), rids.end());
    Result<StatementResult> result =
        db.ExecuteStatement(Statement::Select(Query::Point(0, v)));
    ASSERT_TRUE(result.ok());
    std::vector<Rid> got = result->rids;
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, rids) << "value " << v;
  }
  EXPECT_TRUE(CheckSpaceConsistency(db.table(), *db.space()).ok());
}

}  // namespace
}  // namespace aib
