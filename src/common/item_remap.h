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

#ifndef BUTTERFLY_COMMON_ITEM_REMAP_H_
#define BUTTERFLY_COMMON_ITEM_REMAP_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace butterfly {

/// Assigns dense uint32 ids to live items, recycling released ids.
class ItemRemap {
 public:
  /// Sentinel returned by Find for unmapped items.
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  /// Dense id of \p item, mapping it if new (reusing a released id when one
  /// is available, else extending the dense range).
  uint32_t Acquire(Item item) {
    auto [it, inserted] = to_dense_.try_emplace(item, 0);
    if (inserted) {
      if (!free_.empty()) {
        it->second = free_.back();
        free_.pop_back();
      } else {
        it->second = dense_limit_++;
      }
    }
    return it->second;
  }

  /// Dense id of \p item, or kNone if it is not mapped.
  uint32_t Find(Item item) const {
    auto it = to_dense_.find(item);
    return it == to_dense_.end() ? kNone : it->second;
  }

  /// Unmaps \p item and recycles its dense id. No-op when unmapped.
  void Release(Item item) {
    auto it = to_dense_.find(item);
    if (it == to_dense_.end()) return;
    free_.push_back(it->second);
    to_dense_.erase(it);
  }

  /// Number of currently mapped items.
  size_t live() const { return to_dense_.size(); }

  /// Upper bound of the dense range ever handed out: arrays indexed by dense
  /// id need this many slots.
  size_t dense_limit() const { return dense_limit_; }

 private:
  std::unordered_map<Item, uint32_t> to_dense_;
  std::vector<uint32_t> free_;
  uint32_t dense_limit_ = 0;
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_ITEM_REMAP_H_
