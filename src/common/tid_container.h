/// \file tid_container.h
/// \brief Hybrid (roaring-style) tid-container: one item's tidset over the
/// H window slots, stored as whichever of two exact representations is
/// smaller for its current cardinality.
///
/// The dense `WindowBitmapIndex` rows cost WordsFor(H)*8 bytes each no
/// matter how rare the item is; at million-item power-law alphabets almost
/// every row is near-empty and that is gigabytes of zero words. A
/// TidContainer holds the same set as
///   - a sorted uint16 **array** of slots while sparse (2 bytes/member), or
///   - the dense **bitmap** while populous (the Moment hot loop keeps its
///     word-AND shape on these rows).
///
/// Both are exact: every query (Test, AndInto, materialization) returns the
/// same bits regardless of representation, so index output is bit-identical
/// to the dense path by construction and pinned by the dense-vs-hybrid fuzz
/// grid rather than assumed.
///
/// ## Determinism
/// The representation is one pure function of (cardinality, H), ChooseKind:
/// the byte-cheaper form, ties to the array. Set and Clear re-apply it
/// after every mutation, so a row converts exactly when its cardinality
/// crosses ArrayLimit(H) = 4 * WordsFor(H), and a row's form never depends
/// on its history. Two replicas, or a live index and one rebuilt from its
/// window, hold the same set in the same form.
///
/// Containers address slots with uint16, so hybrid mode requires H <= 65536
/// (kMaxWindow, checked where an engine or fleet is created). The
/// window slot space is fixed-size and recycled, which is exactly the
/// roaring chunk shape.

#ifndef BUTTERFLY_COMMON_TID_CONTAINER_H_
#define BUTTERFLY_COMMON_TID_CONTAINER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitmap.h"
#include "common/check.h"

namespace butterfly {

/// One item's tidset over [0, H) in array or bitmap form.
class TidContainer {
 public:
  enum class Kind : uint8_t { kArray = 0, kBitmap = 1 };

  /// Largest cardinality held as an array over \p h slots: up to it, 2
  /// bytes a member cost no more than the 8 * WordsFor(h) bitmap bytes.
  static size_t ArrayLimit(size_t h) { return 4 * Bitmap::WordsFor(h); }

  /// The representation rule: the byte-cheaper form, ties to the array.
  /// Every conversion goes through it — keep it a pure function of its
  /// arguments.
  static Kind ChooseKind(size_t cardinality, size_t h) {
    return cardinality <= ArrayLimit(h) ? Kind::kArray : Kind::kBitmap;
  }

  TidContainer() = default;

  /// Resets to the empty set over [0, h), array form. Keeps allocations.
  void Init(size_t h);

  size_t slot_space() const { return h_; }
  Kind kind() const { return kind_; }
  size_t cardinality() const { return cardinality_; }
  bool empty() const { return cardinality_ == 0; }

  /// Membership mutation; \p slot must not be set / must be set (the window
  /// bit-flip protocol already guarantees this at the index layer).
  void Set(size_t slot);
  void Clear(size_t slot);
  bool Test(size_t slot) const;

  /// out = base ∧ this, fused with popcount; \p out is fully overwritten and
  /// must not alias \p base's storage. Cost: O(words) bitmap,
  /// O(words + cardinality) array.
  size_t AndInto(const Bitmap& base, Bitmap* out) const;

  /// base &= this, in place (the aliasing-safe chain step for multi-item
  /// Tidset). Returns the popcount of the result.
  size_t AndWith(Bitmap* base) const;

  /// Materializes the set into \p out (sized to the slot space).
  void ToBitmap(Bitmap* out) const;

  /// Calls fn(slot) for every member in ascending slot order.
  template <typename Fn>
  void ForEachSlot(const Fn& fn) const {
    switch (kind_) {
      case Kind::kArray:
        for (uint16_t s : slots_) fn(static_cast<size_t>(s));
        break;
      case Kind::kBitmap:
        bitmap_.ForEachSetBit(fn);
        break;
    }
  }

  /// Heap bytes of the live representation (payload only; the accounting
  /// feed for WindowBitmapIndex::MemoryStats()'s index_bytes).
  size_t MemoryBytes() const;

  /// Dense-representation equality (used by the fuzz grid).
  bool SameSetAs(const Bitmap& dense) const;

 private:
  /// Applies ChooseKind to the current cardinality; converts only when the
  /// last mutation moved the cardinality across ArrayLimit(H).
  void Reconsider();
  void ConvertTo(Kind target);

  size_t h_ = 0;
  Kind kind_ = Kind::kArray;
  size_t cardinality_ = 0;
  std::vector<uint16_t> slots_;  // kArray: strictly ascending members
  Bitmap bitmap_;                // kBitmap: dense words over [0, h)
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_TID_CONTAINER_H_
