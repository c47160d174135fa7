#include "core/consistency.h"

#include <map>
#include <sstream>
#include <unordered_map>

namespace aib {

namespace {

std::string Msg(const std::string& what, size_t page) {
  std::ostringstream out;
  out << what << " (page " << page << ")";
  return out.str();
}

}  // namespace

Status CheckPartialIndexConsistency(const Table& table,
                                    const PartialIndex& index) {
  // Every covered live tuple must be indexed exactly once; every index
  // entry must resolve to a live covered tuple.
  std::unordered_map<Rid, Value> covered_tuples;
  AIB_RETURN_IF_ERROR(
      table.heap().ForEachTuple([&](const Rid& rid, const Tuple& tuple) {
        const Value v = tuple.IntValue(table.schema(), index.column());
        if (index.Covers(v)) covered_tuples.emplace(rid, v);
      }));

  size_t entries_seen = 0;
  Status status = Status::Ok();
  index.structure().ForEachEntry([&](Value value, const Rid& rid) {
    ++entries_seen;
    if (!status.ok()) return;
    if (!index.Covers(value)) {
      status = Status::Corruption("partial index entry outside coverage");
      return;
    }
    auto it = covered_tuples.find(rid);
    if (it == covered_tuples.end()) {
      status = Status::Corruption(
          "partial index entry references no covered live tuple " +
          RidToString(rid));
      return;
    }
    if (it->second != value) {
      status = Status::Corruption("partial index entry value mismatch at " +
                                  RidToString(rid));
    }
  });
  AIB_RETURN_IF_ERROR(status);
  if (entries_seen != covered_tuples.size()) {
    return Status::Corruption("partial index entry count mismatch: " +
                              std::to_string(entries_seen) + " vs " +
                              std::to_string(covered_tuples.size()));
  }
  return Status::Ok();
}

Status CheckBufferConsistency(const Table& table, const IndexBuffer& buffer) {
  const PartialIndex& index = buffer.partial_index();

  // Ground truth per page: live tuples not covered by the partial index.
  struct PageTruth {
    std::unordered_map<Rid, Value> uncovered;
  };
  std::vector<PageTruth> truth(table.PageCount());
  for (size_t page = 0; page < table.PageCount(); ++page) {
    AIB_RETURN_IF_ERROR(table.heap().ForEachTupleOnPage(
        page, [&](const Rid& rid, const Tuple& tuple) {
          const Value v = tuple.IntValue(table.schema(), index.column());
          if (!index.Covers(v)) truth[page].uncovered.emplace(rid, v);
        }));
  }

  // (3) + (4): walk every partition's entries, both tiers alike — a
  // demoted partition's run must hold exactly the truth entries of its
  // covered pages, like a hot partition's tree.
  std::vector<size_t> buffered_entries_per_page(table.PageCount(), 0);
  for (const IndexBuffer::PartitionMap* partitions :
       {&buffer.partitions(), &buffer.cold_partitions()}) {
    for (const auto& [partition_id, partition] : *partitions) {
      const std::string tier =
          partition->cold_run() != nullptr ? "cold " : "hot ";
      std::map<size_t, size_t> counted;
      Status status = Status::Ok();
      partition->ForEachEntry([&](Value value, const Rid& rid) {
        if (!status.ok()) return;
        const Result<size_t> page_or = table.PageNumberOf(rid);
        if (!page_or.ok()) {
          status = Status::Corruption(tier + "entry with foreign rid " +
                                      RidToString(rid));
          return;
        }
        const size_t page = page_or.value();
        if (buffer.PartitionIdFor(page) != partition_id) {
          status = Status::Corruption(
              Msg(tier + "entry in wrong partition", page));
          return;
        }
        auto it = truth[page].uncovered.find(rid);
        if (it == truth[page].uncovered.end()) {
          status = Status::Corruption(
              Msg(tier + "entry references no uncovered live tuple", page));
          return;
        }
        if (it->second != value) {
          status = Status::Corruption(Msg(tier + "entry value mismatch", page));
          return;
        }
        ++counted[page];
        ++buffered_entries_per_page[page];
      });
      AIB_RETURN_IF_ERROR(status);
      // (4) page_entries bookkeeping: every counted page matches; registered
      // pages without entries are legal (all their uncovered tuples were
      // deleted or absorbed by the partial index).
      size_t bookkept = 0;
      for (const auto& [page, entries] : partition->page_entries()) {
        bookkept += entries;
        if (page >= table.PageCount() && entries != 0) {
          return Status::Corruption(Msg(tier + "entries beyond table", page));
        }
        const size_t actual = counted.contains(page) ? counted.at(page) : 0;
        if (entries != actual) {
          return Status::Corruption(Msg(tier + "page_entries drift", page));
        }
      }
      if (bookkept != partition->EntryCount()) {
        return Status::Corruption(tier + "partition entry accounting drift");
      }
      for (const auto& [page, count] : counted) {
        if (!partition->page_entries().contains(page)) {
          return Status::Corruption(
              Msg(tier + "entry on unregistered page", page));
        }
      }
    }
  }

  // (1) + (2): counters against ground truth.
  for (size_t page = 0; page < table.PageCount(); ++page) {
    const bool in_buffer = buffer.PageInBuffer(page);
    const size_t expected =
        in_buffer ? 0 : truth[page].uncovered.size();
    if (page >= buffer.counters().size()) {
      if (expected != 0) {
        return Status::Corruption(Msg("counter missing for page", page));
      }
      continue;
    }
    if (buffer.counters().Get(page) != expected) {
      return Status::Corruption(Msg("counter drift", page));
    }
    if (in_buffer) {
      // Covered pages must hold exactly their uncovered population.
      if (buffered_entries_per_page[page] != truth[page].uncovered.size()) {
        return Status::Corruption(
            Msg("buffered page not fully indexed", page));
      }
    }
  }
  return Status::Ok();
}

Status CheckSpaceConsistency(const Table& table,
                             const IndexBufferSpace& space) {
  size_t total = 0;
  for (const auto& [index, buffer] : space.buffers()) {
    AIB_RETURN_IF_ERROR(CheckPartialIndexConsistency(table, *index));
    AIB_RETURN_IF_ERROR(CheckBufferConsistency(table, *buffer));
    total += buffer->TotalEntries();
  }
  if (total != space.TotalEntries()) {
    return Status::Corruption("space entry accounting drift");
  }
  return Status::Ok();
}

}  // namespace aib
