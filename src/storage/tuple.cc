#include "storage/tuple.h"

#include <cassert>
#include <cstring>

namespace aib {

namespace {

/// Index of schema column `id` within the tuple's int (or string) vector:
/// the number of same-typed columns declared before it.
size_t TypedIndex(const Schema& schema, ColumnId id) {
  const ColumnType type = schema.column(id).type;
  size_t index = 0;
  for (ColumnId i = 0; i < id; ++i) {
    if (schema.column(i).type == type) ++index;
  }
  return index;
}

}  // namespace

Value Tuple::IntValue(const Schema& schema, ColumnId id) const {
  assert(schema.column(id).type == ColumnType::kInt32);
  return ints_[TypedIndex(schema, id)];
}

void Tuple::SetIntValue(const Schema& schema, ColumnId id, Value value) {
  assert(schema.column(id).type == ColumnType::kInt32);
  ints_[TypedIndex(schema, id)] = value;
}

size_t Tuple::SerializedSize() const {
  size_t bytes = sizeof(Value) * ints_.size();
  for (const std::string& s : strings_) bytes += sizeof(uint16_t) + s.size();
  return bytes;
}

std::vector<uint8_t> Tuple::Serialize(const Schema& schema) const {
  std::vector<uint8_t> out(SerializedSize());
  uint8_t* pos = out.data();
  size_t int_i = 0;
  size_t str_i = 0;
  for (const ColumnDef& col : schema.columns()) {
    if (col.type == ColumnType::kInt32) {
      assert(int_i < ints_.size());
      const Value v = ints_[int_i++];
      std::memcpy(pos, &v, sizeof(Value));
      pos += sizeof(Value);
    } else {
      assert(str_i < strings_.size());
      const std::string& s = strings_[str_i++];
      assert(s.size() <= UINT16_MAX);
      const uint16_t len = static_cast<uint16_t>(s.size());
      std::memcpy(pos, &len, sizeof(len));
      std::memcpy(pos + sizeof(len), s.data(), s.size());
      pos += sizeof(len) + s.size();
    }
  }
  assert(pos == out.data() + out.size());
  return out;
}

namespace {

/// Walks `bytes` as a record of `schema`, handing each kInt32 value to
/// `on_int(column, value)` and each varchar's bytes to `on_varchar`. The
/// one definition of a well-formed record: Deserialize and CheckRecord
/// return exactly its statuses.
template <typename OnInt, typename OnVarchar>
Status WalkRecord(const Schema& schema, std::span<const uint8_t> bytes,
                  OnInt&& on_int, OnVarchar&& on_varchar) {
  size_t pos = 0;
  const std::vector<ColumnDef>& columns = schema.columns();
  for (ColumnId c = 0; c < columns.size(); ++c) {
    if (columns[c].type == ColumnType::kInt32) {
      if (pos + sizeof(Value) > bytes.size()) {
        return Status::Corruption("tuple truncated in int column");
      }
      Value v;
      std::memcpy(&v, bytes.data() + pos, sizeof(Value));
      pos += sizeof(Value);
      on_int(c, v);
    } else {
      if (pos + sizeof(uint16_t) > bytes.size()) {
        return Status::Corruption("tuple truncated in varchar length");
      }
      uint16_t len;
      std::memcpy(&len, bytes.data() + pos, sizeof(len));
      pos += sizeof(len);
      if (pos + len > bytes.size()) {
        return Status::Corruption("tuple truncated in varchar data");
      }
      on_varchar(bytes.subspan(pos, len));
      pos += len;
    }
  }
  if (pos != bytes.size()) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return Status::Ok();
}

}  // namespace

Result<Tuple> Tuple::Deserialize(const Schema& schema,
                                 std::span<const uint8_t> bytes) {
  std::vector<Value> ints;
  std::vector<std::string> strings;
  const Status status = WalkRecord(
      schema, bytes, [&](ColumnId, Value v) { ints.push_back(v); },
      [&](std::span<const uint8_t> s) {
        strings.emplace_back(reinterpret_cast<const char*>(s.data()),
                             s.size());
      });
  if (!status.ok()) return status;
  return Tuple(std::move(ints), std::move(strings));
}

Status Tuple::CheckRecord(const Schema& schema,
                          std::span<const uint8_t> bytes,
                          std::span<Value> ints) {
  return WalkRecord(
      schema, bytes,
      [&](ColumnId c, Value v) {
        if (!ints.empty()) ints[c] = v;
      },
      [](std::span<const uint8_t>) {});
}

}  // namespace aib
