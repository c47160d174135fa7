// Snapshot persistence for Catalog (see catalog.h for the semantics: only
// durable state is saved; every Index Buffer comes back empty, §VII).
//
// Binary format (little-endian):
//   magic "AIBSNAP1"
//   u32 page_size
//   u64 page_count          | raw pages follow, page_size bytes each
//   u32 table_count
//   per table:
//     string name
//     u32 column_count; per column: string name, u8 type, u16 max_length
//     u64 heap_page_id_count; u32 page ids (ascending)
//     u64 tuple_count
//     u32 index_count
//     per index: u16 column, u8 structure_kind,
//                u32 interval_count; per interval: i32 lo, i32 hi

#include <cstring>
#include <fstream>

#include "workload/catalog.h"

namespace aib {

namespace {

constexpr char kMagic[8] = {'A', 'I', 'B', 'S', 'N', 'A', 'P', '1'};

template <typename T>
void WritePod(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::istream& in, std::string* s) {
  uint32_t length;
  if (!ReadPod(in, &length)) return false;
  if (length > (1u << 20)) return false;  // sanity bound for metadata
  s->resize(length);
  in.read(s->data(), length);
  return in.good() || (length == 0 && !in.bad());
}

}  // namespace

Status Catalog::SaveSnapshot(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open snapshot file " + path);
  }
  return SaveSnapshotTo(out);
}

Status Catalog::SaveSnapshotTo(std::ostream& out) {
  AIB_RETURN_IF_ERROR(pool_->FlushAll());
  out.write(kMagic, sizeof(kMagic));
  WritePod<uint32_t>(out, options_.page_size);
  WritePod<uint64_t>(out, disk_->PageCount());
  for (PageId id = 0; id < disk_->PageCount(); ++id) {
    const auto raw = disk_->PeekPage(id).raw();
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
  }

  WritePod<uint32_t>(out, static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, state] : tables_) {
    WriteString(out, name);
    const Schema& schema = state->table->schema();
    WritePod<uint32_t>(out, static_cast<uint32_t>(schema.num_columns()));
    for (const ColumnDef& column : schema.columns()) {
      WriteString(out, column.name);
      WritePod<uint8_t>(out, static_cast<uint8_t>(column.type));
      WritePod<uint16_t>(out, column.max_length);
    }
    const std::vector<PageId> page_ids = state->table->heap().page_ids();
    WritePod<uint64_t>(out, page_ids.size());
    for (PageId id : page_ids) WritePod<uint32_t>(out, id);
    WritePod<uint64_t>(out, state->table->TupleCount());

    WritePod<uint32_t>(out, static_cast<uint32_t>(state->indexes.size()));
    for (const auto& [column, index] : state->indexes) {
      WritePod<uint16_t>(out, column);
      WritePod<uint8_t>(out,
                        static_cast<uint8_t>(index->structure_kind()));
      WritePod<uint32_t>(out,
                         static_cast<uint32_t>(
                             index->coverage().IntervalCount()));
      index->coverage().ForEachInterval([&](Value lo, Value hi) {
        WritePod<int32_t>(out, lo);
        WritePod<int32_t>(out, hi);
      });
    }
  }
  out.flush();
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

Result<std::unique_ptr<Catalog>> Catalog::LoadSnapshot(
    const std::string& path, CatalogOptions options) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open snapshot file " + path);
  }
  return LoadSnapshotFrom(in, std::move(options));
}

Result<std::unique_ptr<Catalog>> Catalog::LoadSnapshotFrom(
    std::istream& in, CatalogOptions options) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad snapshot magic");
  }
  uint32_t page_size;
  uint64_t page_count;
  if (!ReadPod(in, &page_size) || !ReadPod(in, &page_count)) {
    return Status::Corruption("truncated snapshot header");
  }
  options.page_size = page_size;
  auto catalog = std::unique_ptr<Catalog>(new Catalog(options));

  std::vector<uint8_t> raw(page_size);
  for (uint64_t i = 0; i < page_count; ++i) {
    in.read(reinterpret_cast<char*>(raw.data()), page_size);
    if (!in.good()) return Status::Corruption("truncated snapshot page");
    const PageId id = catalog->disk_->AllocatePage();
    AIB_RETURN_IF_ERROR(catalog->disk_->RestorePage(id, raw));
  }

  uint32_t table_count;
  if (!ReadPod(in, &table_count)) {
    return Status::Corruption("truncated table count");
  }
  for (uint32_t t = 0; t < table_count; ++t) {
    std::string name;
    if (!ReadString(in, &name)) return Status::Corruption("bad table name");
    uint32_t column_count;
    if (!ReadPod(in, &column_count) || column_count > 4096) {
      return Status::Corruption("bad column count");
    }
    std::vector<ColumnDef> columns;
    columns.reserve(column_count);
    for (uint32_t c = 0; c < column_count; ++c) {
      ColumnDef column;
      uint8_t type;
      if (!ReadString(in, &column.name) || !ReadPod(in, &type) ||
          !ReadPod(in, &column.max_length)) {
        return Status::Corruption("bad column definition");
      }
      column.type = static_cast<ColumnType>(type);
      columns.push_back(std::move(column));
    }
    AIB_ASSIGN_OR_RETURN(
        Table * table,
        catalog->CreateTable(name, Schema(std::move(columns))));

    uint64_t heap_pages;
    if (!ReadPod(in, &heap_pages)) {
      return Status::Corruption("bad heap page count");
    }
    std::vector<PageId> page_ids;
    page_ids.reserve(heap_pages);
    for (uint64_t p = 0; p < heap_pages; ++p) {
      uint32_t id;
      if (!ReadPod(in, &id) || id >= page_count) {
        return Status::Corruption("bad heap page id");
      }
      page_ids.push_back(id);
    }
    uint64_t tuple_count;
    if (!ReadPod(in, &tuple_count)) {
      return Status::Corruption("bad tuple count");
    }
    table->heap().RestoreState(page_ids, static_cast<size_t>(tuple_count));

    uint32_t index_count;
    if (!ReadPod(in, &index_count) || index_count > 4096) {
      return Status::Corruption("bad index count");
    }
    for (uint32_t i = 0; i < index_count; ++i) {
      uint16_t column;
      uint8_t kind;
      uint32_t interval_count;
      if (!ReadPod(in, &column) || !ReadPod(in, &kind) ||
          kind > static_cast<uint8_t>(IndexStructureKind::kHash) ||
          !ReadPod(in, &interval_count) || interval_count > (1u << 24)) {
        return Status::Corruption("bad index metadata");
      }
      ValueCoverage coverage;
      for (uint32_t k = 0; k < interval_count; ++k) {
        int32_t lo;
        int32_t hi;
        if (!ReadPod(in, &lo) || !ReadPod(in, &hi) || lo > hi) {
          return Status::Corruption("bad coverage interval");
        }
        coverage.AddRange(lo, hi);
      }
      // Rebuilds the index from the restored pages and starts its Index
      // Buffer empty, with C[p] from the same walk.
      AIB_RETURN_IF_ERROR(catalog->CreatePartialIndex(
          table, column, std::move(coverage),
          static_cast<IndexStructureKind>(kind)));
    }
  }
  return catalog;
}

}  // namespace aib
