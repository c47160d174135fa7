// Recovery-free restart: the paper's §VII point that the Index Buffer is
// "memory-based and without expenses for crash recovery". A snapshot
// persists only the durable state (pages, schemas, partial-index
// definitions); after a restart the Index Buffer starts empty — and simply
// rebuilds from the first table scans, exactly like its initial warm-up.
//
//   $ ./restart_recovery

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common/rng.h"
#include "workload/catalog.h"

using namespace aib;

namespace {

// Entries in both tiers of a buffer: demoted cold runs count too.
size_t BufferedEntries(const IndexBuffer* buffer) {
  return buffer->TotalEntries() + buffer->ColdEntries();
}

}  // namespace

int main() {
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "aib_restart_demo.bin")
          .string();

  CatalogOptions options;
  options.space.max_entries = 100000;
  options.space.max_pages_per_scan = 600;
  options.buffer.partition_pages = 200;
  options.max_tuples_per_page = 40;

  // --- Session 1: load, index, warm the buffer, snapshot. ---
  {
    Catalog catalog(options);
    Table* table =
        catalog.CreateTable("events", Schema::PaperSchema(1, 64)).value();
    std::cout << "session 1: loading 80,000 events...\n";
    Rng rng(99);
    for (int i = 0; i < 80000; ++i) {
      Tuple row({static_cast<Value>(rng.UniformInt(1, 20000))},
                {"event-" + std::to_string(i)});
      if (!catalog.LoadTuple(table, row).ok()) return 1;
    }
    if (!catalog.CreatePartialIndex(table, 0, ValueCoverage::Range(1, 2000))
             .ok()) {
      return 1;
    }

    // Warm the buffer with misses.
    double first_cost = 0;
    double warm_cost = 0;
    for (int i = 0; i < 8; ++i) {
      const Statement select =
          Statement::Select(Query::Point(0, static_cast<Value>(5000 + i)));
      auto result = catalog.ExecuteStatement(table, select);
      if (!result.ok()) return 1;
      if (i == 0) first_cost = result->stats.cost;
      warm_cost = result->stats.cost;
    }
    std::cout << "session 1: first miss cost " << first_cost
              << ", warm miss cost " << warm_cost << " (buffer holds "
              << BufferedEntries(catalog.GetBuffer(table, 0))
              << " entries, hot + cold)\n";

    if (!catalog.SaveSnapshot(snapshot_path).ok()) return 1;
    std::cout << "session 1: snapshot saved; process 'crashes' now.\n\n";
  }

  // --- Session 2: reload. Data and indexes are back; the buffer is not. ---
  {
    Result<std::unique_ptr<Catalog>> catalog_or =
        Catalog::LoadSnapshot(snapshot_path, options);
    if (!catalog_or.ok()) {
      std::cerr << "load failed: " << catalog_or.status().ToString() << "\n";
      return 1;
    }
    std::unique_ptr<Catalog> catalog = std::move(catalog_or).value();
    Table* table = catalog->GetTable("events");
    std::cout << "session 2: restored " << table->TupleCount()
              << " events, partial index "
              << catalog->GetIndex(table, 0)->coverage().ToString() << " ("
              << catalog->GetIndex(table, 0)->EntryCount() << " entries)\n"
              << "session 2: Index Buffer after restart: "
              << BufferedEntries(catalog->GetBuffer(table, 0))
              << " entries, hot + cold — nothing was recovered, nothing had "
                 "to be.\n";

    // The first post-restart miss pays a scan (and re-warms the buffer);
    // the second is cheap again.
    auto first = catalog->ExecuteStatement(
        table, Statement::Select(Query::Point(0, 5000)));
    auto second = catalog->ExecuteStatement(
        table, Statement::Select(Query::Point(0, 5001)));
    if (!first.ok() || !second.ok()) return 1;
    std::cout << "session 2: post-restart miss costs " << first->stats.cost
              << " then " << second->stats.cost << " ("
              << second->stats.pages_skipped
              << " pages skipped) — the scratch pad rebuilt itself within "
                 "one scan.\n";
  }

  std::remove(snapshot_path.c_str());
  return 0;
}
