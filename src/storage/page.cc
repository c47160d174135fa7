#include "storage/page.h"

#include <algorithm>
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

uint32_t Page::LiveBytes() const {
  uint32_t bytes = 0;
  const uint8_t* slot = data_.data() + kHeaderSize;
  const uint8_t* const end = slot + slot_count() * kSlotSize;
  for (uint16_t entry[2] = {}; slot < end; slot += kSlotSize) {  // off, len
    std::memcpy(entry, slot, sizeof(entry));
    if (entry[0] != 0) bytes += entry[1];
  }
  return bytes;
}

uint32_t Page::FreeSpace() const {
  const uint32_t used = SlotArrayEnd() + kSlotSize + LiveBytes();
  return used < page_size() ? page_size() - used : 0;
}

uint32_t Page::DeadBytes() const {
  return page_size() - DataStart() - LiveBytes();
}

uint32_t Page::ReclaimedSpace() const {
  const uint32_t live = LiveBytes();
  const bool reclaimed =
      live_count() < slot_count() || DataStart() + live < page_size();
  const uint32_t used = SlotArrayEnd() + kSlotSize + live;
  return reclaimed && used < page_size() ? page_size() - used : 0;
}

void Page::SetSlot(SlotId slot, uint32_t start, uint32_t length) {
  SetU16(SlotOffsetPos(slot),
         static_cast<uint16_t>(std::min<uint32_t>(start, UINT16_MAX)));
  SetU16(SlotOffsetPos(slot) + 2, static_cast<uint16_t>(length));
}

void Page::Compact() {
  const uint32_t data_start = DataStart();
  // Compacting inserts are frequent under churn; reuse one copy buffer.
  thread_local std::vector<uint8_t> old;
  old.assign(data_.begin() + data_start, data_.end());
  uint32_t end = page_size();
  for (SlotId slot = 0; slot < slot_count(); ++slot) {
    const uint16_t offset = GetU16(SlotOffsetPos(slot));
    if (offset == 0) continue;  // tombstone
    const uint16_t length = GetU16(SlotOffsetPos(slot) + 2);
    end -= length;
    if (length > 0) {
      std::memcpy(data_.data() + end, old.data() + (offset - data_start),
                  length);
    }
    SetSlot(slot, end, length);
  }
  SetU16(2, static_cast<uint16_t>(end));
}

Status Page::Insert(std::span<const uint8_t> record, SlotId* slot_out) {
  if (record.size() > UINT16_MAX) {
    return Status::InvalidArgument("record too large for a page slot");
  }
  const uint32_t needed = SlotArrayEnd() + kSlotSize +
                          static_cast<uint32_t>(record.size());
  if (needed > DataStart()) {
    if (needed + LiveBytes() > page_size()) return Status::NoSpace("page full");
    Compact();
  }
  const uint32_t start = DataStart() - static_cast<uint32_t>(record.size());
  // An empty record's data() may be null, and memcpy from null is
  // undefined even for zero bytes.
  if (!record.empty()) {
    std::memcpy(data_.data() + start, record.data(), record.size());
  }

  const SlotId slot = slot_count();
  SetSlot(slot, start, static_cast<uint32_t>(record.size()));
  SetU16(0, static_cast<uint16_t>(slot + 1));
  SetU16(2, static_cast<uint16_t>(start));
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
