#include "storage/page.h"

#include <cassert>

namespace aib {

Page::Page(uint32_t page_size) : data_(page_size, 0) {
  assert(page_size >= 64 && page_size <= UINT16_MAX + 1u);
  SetU16(0, 0);                                  // slot_count
  SetU16(2, static_cast<uint16_t>(page_size));   // free_data_offset (end)
  SetU16(4, 0);                                  // live_count
}

uint16_t Page::GetU16(uint32_t offset) const {
  uint16_t v;
  std::memcpy(&v, data_.data() + offset, sizeof(v));
  return v;
}

void Page::SetU16(uint32_t offset, uint16_t value) {
  std::memcpy(data_.data() + offset, &value, sizeof(value));
}

SlotId Page::slot_count() const { return GetU16(0); }

uint16_t Page::live_count() const { return GetU16(4); }

uint32_t Page::FreeSpace() const {
  const uint32_t data_start = GetU16(2) == 0 ? page_size() : GetU16(2);
  const uint32_t slots_end = SlotArrayEnd();
  const uint32_t gap = data_start > slots_end ? data_start - slots_end : 0;
  return gap > kSlotSize ? gap - kSlotSize : 0;
}

Status Page::Insert(std::span<const uint8_t> record, SlotId* slot_out) {
  if (record.size() > UINT16_MAX) {
    return Status::InvalidArgument("record too large for a page slot");
  }
  if (record.size() > FreeSpace()) {
    return Status::NoSpace("page full");
  }
  const uint16_t data_start = GetU16(2);
  const uint16_t new_start =
      static_cast<uint16_t>(data_start - record.size());
  // An empty record's data() may be null, and memcpy from null is
  // undefined even for zero bytes.
  if (!record.empty()) {
    std::memcpy(data_.data() + new_start, record.data(), record.size());
  }

  const SlotId slot = slot_count();
  SetU16(SlotOffsetPos(slot), new_start);
  SetU16(SlotOffsetPos(slot) + 2, static_cast<uint16_t>(record.size()));
  SetU16(0, static_cast<uint16_t>(slot + 1));
  SetU16(2, new_start);
  SetU16(4, static_cast<uint16_t>(live_count() + 1));
  if (slot_out != nullptr) *slot_out = slot;
  return Status::Ok();
}

Status Page::Read(SlotId slot, std::span<const uint8_t>* record_out) const {
  if (slot >= slot_count()) return Status::NotFound("slot out of range");
  const uint16_t offset = GetU16(SlotOffsetPos(slot));
  if (offset == 0) return Status::NotFound("slot deleted");
  const uint16_t length = GetU16(SlotOffsetPos(slot) + 2);
  *record_out = std::span<const uint8_t>(data_.data() + offset, length);
  return Status::Ok();
}

Status Page::Delete(SlotId slot) {
  if (slot >= slot_count()) return Status::NotFound("slot out of range");
  if (GetU16(SlotOffsetPos(slot)) == 0) {
    return Status::NotFound("slot already deleted");
  }
  SetU16(SlotOffsetPos(slot), 0);
  SetU16(SlotOffsetPos(slot) + 2, 0);
  SetU16(4, static_cast<uint16_t>(live_count() - 1));
  return Status::Ok();
}

Status Page::UpdateInPlace(SlotId slot, std::span<const uint8_t> record) {
  if (slot >= slot_count()) return Status::NotFound("slot out of range");
  const uint16_t offset = GetU16(SlotOffsetPos(slot));
  if (offset == 0) return Status::NotFound("slot deleted");
  const uint16_t old_length = GetU16(SlotOffsetPos(slot) + 2);
  if (record.size() > old_length) {
    return Status::NoSpace("record grew beyond its slot");
  }
  if (!record.empty()) {
    std::memcpy(data_.data() + offset, record.data(), record.size());
  }
  SetU16(SlotOffsetPos(slot) + 2, static_cast<uint16_t>(record.size()));
  return Status::Ok();
}

bool Page::IsLive(SlotId slot) const {
  return slot < slot_count() && GetU16(SlotOffsetPos(slot)) != 0;
}

}  // namespace aib
