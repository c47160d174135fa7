#ifndef AIB_STORAGE_TUPLE_H_
#define AIB_STORAGE_TUPLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/schema.h"

namespace aib {

/// A deserialized tuple. Integer columns are stored in `ints` in schema
/// order of the kInt32 columns; varchar columns in `strings` in schema order
/// of the kVarchar columns.
class Tuple {
 public:
  Tuple() = default;
  Tuple(std::vector<Value> ints, std::vector<std::string> strings)
      : ints_(std::move(ints)), strings_(std::move(strings)) {}

  /// Value of schema column `id`. Requires the column to be kInt32.
  Value IntValue(const Schema& schema, ColumnId id) const;

  /// Sets schema column `id` (kInt32) to `value`.
  void SetIntValue(const Schema& schema, ColumnId id, Value value);

  const std::vector<Value>& ints() const { return ints_; }
  const std::vector<std::string>& strings() const { return strings_; }

  /// Wire format: each kInt32 column as 4-byte little-endian, each kVarchar
  /// column as u16 length + bytes, interleaved in schema order.
  std::vector<uint8_t> Serialize(const Schema& schema) const;

  /// Size of Serialize's record (for the tuple's schema), without it.
  size_t SerializedSize() const;

  static Result<Tuple> Deserialize(const Schema& schema,
                                   std::span<const uint8_t> bytes);

  /// Checks that `bytes` is a record of `schema` without building a Tuple
  /// or allocating: returns exactly the status Deserialize would. When
  /// `ints` is non-empty it holds one entry per schema column, and each
  /// kInt32 column's value is stored at its column id.
  static Status CheckRecord(const Schema& schema,
                            std::span<const uint8_t> bytes,
                            std::span<Value> ints = {});

  friend bool operator==(const Tuple&, const Tuple&) = default;

 private:
  std::vector<Value> ints_;
  std::vector<std::string> strings_;
};

}  // namespace aib

#endif  // AIB_STORAGE_TUPLE_H_
