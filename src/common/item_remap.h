/// \file item_remap.h
/// \brief Sparse-to-dense item id remapping with slot reuse.
///
/// Stream item universes are sparse and drift over time (BMS item ids reach
/// into the hundreds of thousands; drift streams retire whole id ranges).
/// Structures that want an array indexed by item — the vertical bitmap index,
/// per-item scratch counters — remap live items to a dense [0, n) range here.
/// Ids of items that leave the window are recycled, so the dense range stays
/// bounded by the number of *concurrently* live items, not by the lifetime
/// universe.
///
/// The map is an open-addressing table: linear probing over a power-of-two
/// array kept at most half full, a multiplicative hash of the item id, and
/// backward-shift deletion, so there are no tombstones and no node per item.

#ifndef BUTTERFLY_COMMON_ITEM_REMAP_H_
#define BUTTERFLY_COMMON_ITEM_REMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace butterfly {

/// Assigns dense uint32 ids to live items, recycling released ids.
class ItemRemap {
 public:
  /// Sentinel returned by Find for unmapped items.
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  /// Dense id of \p item, mapping it if new (reusing the most recently
  /// released id when one is available, else extending the dense range).
  uint32_t Acquire(Item item) {
    if (2 * (live_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[Probe(item)];
    if (slot.dense == kNone) {
      slot.item = item;
      if (free_.empty()) {
        slot.dense = dense_limit_++;
      } else {
        slot.dense = free_.back();
        free_.pop_back();
      }
      ++live_;
    }
    return slot.dense;
  }

  /// Dense id of \p item, or kNone if it is not mapped.
  uint32_t Find(Item item) const { return slots_[Probe(item)].dense; }

  /// Unmaps \p item and recycles its dense id. No-op when unmapped.
  void Release(Item item) {
    size_t hole = Probe(item);
    if (slots_[hole].dense == kNone) return;
    free_.push_back(slots_[hole].dense);
    --live_;
    // Backward shift: pull each later entry of the probe run into the hole
    // unless that would move it before its home slot.
    const size_t mask = slots_.size() - 1;
    for (size_t next = (hole + 1) & mask; slots_[next].dense != kNone;
         next = (next + 1) & mask) {
      if (((next - Home(slots_[next].item)) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole].dense = kNone;
  }

  /// Number of currently mapped items.
  size_t live() const { return live_; }

  /// Upper bound of the dense range ever handed out: arrays indexed by dense
  /// id need this many slots.
  size_t dense_limit() const { return dense_limit_; }

 private:
  struct Slot {
    Item item = 0;
    uint32_t dense = kNone;  ///< kNone marks an empty slot
  };

  /// Fibonacci hashing: the top log2(slots) bits of item * 2^64/phi.
  size_t Home(Item item) const {
    return static_cast<size_t>((item * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// The slot holding \p item, or the empty slot that ends its probe run.
  size_t Probe(Item item) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(item);
    while (slots_[i].dense != kNone && slots_[i].item != item) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Doubles the table and reinserts every entry.
  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.dense != kNone) slots_[Probe(slot.item)] = slot;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(16);
  unsigned shift_ = 60;  ///< 64 - log2(slots_.size())
  size_t live_ = 0;
  std::vector<uint32_t> free_;
  uint32_t dense_limit_ = 0;
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_ITEM_REMAP_H_
