#ifndef AIB_STORAGE_PAGE_H_
#define AIB_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace aib {

/// Default page size. 8 KiB matches common DBMS defaults; experiments that
/// need an exact tuples-per-page count (Fig. 3) additionally cap the slot
/// count via HeapFileOptions::max_tuples_per_page.
inline constexpr uint32_t kDefaultPageSize = 8192;

/// A slotted data page.
///
/// Layout (all offsets relative to the page start):
///
///   [ header | slot array -> ... free ... <- tuple data ]
///
/// Header: slot_count (u16), free_data_offset (u16 = start of the tuple data
/// region, grows downward), live_count (u16). The slot array grows upward
/// from the header; each slot is (offset u16, length u16). A slot with
/// offset == 0 is a tombstone (no tuple can legally start at offset 0, which
/// is inside the header).
///
/// Slots are never reused; bytes are. Deletes tombstone and shrinking
/// updates keep their slots, so slot ids stay stable and the Rids held by
/// indexes remain valid, which the Index Buffer relies on. The bytes they
/// give up stay put until an insert needs them: it then compacts the live
/// records to the page end in place, rewriting their offsets. Live bytes are
/// the sum of live slot lengths, so the on-disk format has no extra field.
class Page {
 public:
  explicit Page(uint32_t page_size = kDefaultPageSize);

  uint32_t page_size() const { return static_cast<uint32_t>(data_.size()); }

  /// Number of slots ever allocated (including tombstones).
  SlotId slot_count() const;

  /// Number of live (non-deleted) tuples.
  uint16_t live_count() const;

  /// The largest record one more insert can take: the page minus its
  /// header, its slot array with one more slot, and its live bytes. Counts
  /// the bytes of deleted and shrunk records, which Insert reclaims.
  uint32_t FreeSpace() const;

  /// Bytes of deleted and shrunk records not yet reclaimed: the room that
  /// FreeSpace() counts beyond the contiguous gap.
  uint32_t DeadBytes() const;

  /// FreeSpace() if the page has a tombstone or dead bytes, else 0.
  uint32_t ReclaimedSpace() const;

  /// Appends a tuple record under a new slot id; returns the id, or NoSpace
  /// when the live bytes, the slot array with one more slot and the record
  /// exceed the page. Compacts the record area first when the contiguous
  /// gap is too small.
  Status Insert(std::span<const uint8_t> record, SlotId* slot_out);

  /// Reads the record at `slot`. NotFound if the slot is a tombstone or out
  /// of range.
  Status Read(SlotId slot, std::span<const uint8_t>* record_out) const;

  /// Tombstones the slot. NotFound if already deleted or out of range.
  Status Delete(SlotId slot);

  /// Replaces the record at `slot` in place. Succeeds only if the new record
  /// is not longer than the old one (callers fall back to delete+insert at
  /// the heap-file level otherwise).
  Status UpdateInPlace(SlotId slot, std::span<const uint8_t> record);

  /// True if `slot` holds a live tuple.
  bool IsLive(SlotId slot) const;

  /// Byte offset of `slot`'s entry in the slot array.
  static constexpr uint32_t SlotOffsetPos(SlotId slot) {
    return kHeaderSize + slot * kSlotSize;
  }

  /// Raw bytes, used by the disk manager to persist/copy pages.
  std::span<const uint8_t> raw() const { return data_; }
  std::span<uint8_t> mutable_raw() { return data_; }

 private:
  static constexpr uint32_t kHeaderSize = 6;  // slot_count, free_off, live
  static constexpr uint32_t kSlotSize = 4;    // offset u16 + length u16

  uint16_t GetU16(uint32_t offset) const;
  void SetU16(uint32_t offset, uint16_t value);

  uint32_t SlotArrayEnd() const { return kHeaderSize + slot_count() * kSlotSize; }
  /// Start of the record area (a 64 KiB page stores its end as 0).
  uint32_t DataStart() const { return GetU16(2) == 0 ? page_size() : GetU16(2); }
  uint32_t LiveBytes() const;
  /// Stores `slot` as (start, length). An empty record at the end of a
  /// 64 KiB page would store 65536 as 0, the tombstone marker, so it points
  /// one byte earlier; it reads no bytes either way.
  void SetSlot(SlotId slot, uint32_t start, uint32_t length);
  /// Moves every live record to the page end in slot order, dropping the
  /// bytes of deleted and shrunk ones.
  void Compact();

  std::vector<uint8_t> data_;
};

}  // namespace aib

#endif  // AIB_STORAGE_PAGE_H_
