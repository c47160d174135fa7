#ifndef AIB_COMMON_GROW_ONLY_ARRAY_H_
#define AIB_COMMON_GROW_ONLY_ARRAY_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace aib {

/// An unbounded array of uint32_t (32-bit indices) that readers index
/// without a lock while one writer at a time stores into it. Slots live in
/// segments of 64, 128, 256, ... that never move or free once allocated,
/// so no reader meets memory being copied or released. A slot reads 0
/// until stored; Store publishes with release and Load reads with acquire.
class GrowOnlyArray {
 public:
  ~GrowOnlyArray() { Clear(); }

  uint32_t Load(size_t index) const {
    const std::atomic<uint32_t>* slot = Slot(index);
    return slot == nullptr ? 0 : slot->load(std::memory_order_acquire);
  }

  /// `index`'s slot, or null while its segment is unallocated.
  const std::atomic<uint32_t>* Slot(size_t index) const {
    const size_t segment = SegmentOf(index);
    const std::atomic<uint32_t>* slots =
        segments_[segment].load(std::memory_order_acquire);
    return slots == nullptr ? nullptr : slots + (index - Start(segment));
  }

  /// Writers must be serialized by the caller.
  void Store(size_t index, uint32_t value) {
    const size_t segment = SegmentOf(index);
    std::atomic<uint32_t>* slots =
        segments_[segment].load(std::memory_order_relaxed);
    if (slots == nullptr) {
      slots = new std::atomic<uint32_t>[kBase << segment]();
      segments_[segment].store(slots, std::memory_order_release);
    }
    slots[index - Start(segment)].store(value, std::memory_order_release);
  }

  /// Frees every segment. Quiesced callers only: no reader may run.
  void Clear() {
    for (auto& segment : segments_) delete[] segment.exchange(nullptr);
  }

 private:
  static constexpr size_t kBase = 64;
  /// Segment s holds kBase << s slots, from index kBase * (2^s - 1).
  static size_t SegmentOf(size_t index) {
    return std::bit_width(index / kBase + 1) - 1;
  }
  static size_t Start(size_t segment) {
    return kBase * ((size_t{1} << segment) - 1);
  }

  /// 27 segments cover every 32-bit index.
  std::array<std::atomic<std::atomic<uint32_t>*>, 27> segments_{};
};

}  // namespace aib

#endif  // AIB_COMMON_GROW_ONLY_ARRAY_H_
