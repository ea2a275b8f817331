/// \file tid_container.h
/// \brief Hybrid (roaring-style) tid-container: one item's tidset over the
/// H window slots, stored as whichever of three exact representations is
/// smallest for its current shape.
///
/// The dense `WindowBitmapIndex` rows cost WordsFor(H)*8 bytes each no
/// matter how rare the item is; at million-item power-law alphabets almost
/// every row is near-empty and that is gigabytes of zero words. A
/// TidContainer holds the same set as
///   - a sorted uint16 **array** of slots while sparse (2 bytes/member),
///   - a run list of [start, start+length) intervals while bursty
///     (8 bytes/run — a hot item that rides consecutive transactions is one
///     circular run regardless of support), or
///   - the existing dense **bitmap** while populous (the Moment hot loop
///     keeps its current word-AND shape on these rows).
///
/// All three are exact: every query (Test, AndInto, materialization) returns
/// the same bits regardless of representation, so index output is
/// bit-identical to the dense path by construction and pinned by the
/// dense-vs-hybrid fuzz grid rather than assumed.
///
/// ## Determinism
/// Representation choices are pure functions of (cardinality, run count, H)
/// — no RNG, no clocks, no unordered-container iteration — so two replicas
/// fed the same stream hold byte-identical container-tagged rows. The
/// decision points (see ChooseKind / the Reconsider triggers in the .cc)
/// are:
///   - array → reconsider when cardinality exceeds ArrayLimit(H) ≈ H/16,
///     or at power-of-two cardinalities ≥ 64 (gives bursty rows a chance to
///     migrate to run form without per-mutation run scans);
///   - bitmap (unpinned) → reconsider when cardinality drops below
///     ArrayLimit(H)/2 (hysteresis: the promote and demote edges differ by
///     2x so a row oscillating on the boundary does not thrash);
///   - run → reconsider when 8*runs > 2*cardinality + 16 (the run list is
///     no longer cheaper than the array, with slack against thrash).
/// Reconsider picks the byte-cheapest representation with the fixed
/// tie-break run < array < bitmap.
///
/// Containers address slots with uint16, so hybrid mode requires H <= 65536
/// (checked by the index). The window slot space is fixed-size and
/// recycled, which is exactly the roaring chunk shape.

#ifndef BUTTERFLY_COMMON_TID_CONTAINER_H_
#define BUTTERFLY_COMMON_TID_CONTAINER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitmap.h"
#include "common/bitmap_kernels.h"
#include "common/check.h"

namespace butterfly {

/// One item's tidset over [0, H) in array / bitmap / run form.
class TidContainer {
 public:
  enum class Kind : uint8_t { kArray = 0, kBitmap = 1, kRun = 2 };

  /// Largest cardinality the array form is kept at: H/16, floored at 16.
  /// (Roaring's classic 4096-of-65536 ratio; scaled to the window size so
  /// small test windows still exercise every representation.)
  static size_t ArrayLimit(size_t h) {
    const size_t limit = h / 16;
    return limit < 16 ? 16 : limit;
  }

  /// Pure representation choice by byte cost; ties break run < array <
  /// bitmap. This is the single decision function every conversion goes
  /// through — keep it free of anything non-deterministic.
  static Kind ChooseKind(size_t cardinality, size_t runs, size_t h) {
    const size_t run_bytes = 8 * runs;
    const size_t array_bytes = 2 * cardinality;
    const size_t bitmap_bytes = 8 * Bitmap::WordsFor(h);
    if (run_bytes <= array_bytes && run_bytes <= bitmap_bytes) {
      return Kind::kRun;
    }
    if (array_bytes <= bitmap_bytes) return Kind::kArray;
    return Kind::kBitmap;
  }

  TidContainer() = default;

  /// Resets to the empty set over [0, h), array form. Keeps allocations.
  void Init(size_t h);

  size_t slot_space() const { return h_; }
  Kind kind() const { return kind_; }
  size_t cardinality() const { return cardinality_; }
  bool empty() const { return cardinality_ == 0; }

  /// Pins the container on the dense bitmap representation: Reconsider never
  /// demotes a pinned container, so the Moment hot loop sees a plain word
  /// array for hot items. Unpin re-applies the thresholds immediately.
  void Pin();
  void Unpin();
  bool pinned() const { return pinned_; }

  /// Membership mutation; \p slot must not be set / must be set (the window
  /// bit-flip protocol already guarantees this at the index layer).
  void Set(size_t slot);
  void Clear(size_t slot);
  bool Test(size_t slot) const;

  /// out = base ∧ this, fused with popcount; \p out is fully overwritten and
  /// must not alias \p base's storage. Cost: O(words) bitmap,
  /// O(cardinality) array, O(runs + covered words) run.
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
      case Kind::kRun:
        for (const TidRun& r : runs_) {
          const size_t end = static_cast<size_t>(r.start) + r.length;
          for (size_t s = r.start; s < end; ++s) fn(s);
        }
        break;
    }
  }

  /// Heap bytes of the live representation (payload only; the accounting
  /// feed for WindowBitmapIndex::MemoryStats()'s index_bytes).
  size_t MemoryBytes() const;

  /// Dense-representation equality (used by the fuzz grid).
  bool SameSetAs(const Bitmap& dense) const;

 private:
  /// Re-evaluates the representation against the thresholds; conversion
  /// events are the only place run counts are scanned, so cost is amortized
  /// over the mutations that moved the cardinality.
  void Reconsider();
  void ConvertTo(Kind target);
  size_t CountRuns() const;

  size_t h_ = 0;
  Kind kind_ = Kind::kArray;
  size_t cardinality_ = 0;
  bool pinned_ = false;
  std::vector<uint16_t> slots_;  // kArray: strictly ascending members
  Bitmap bitmap_;                // kBitmap: dense words over [0, h)
  std::vector<TidRun> runs_;     // kRun: ascending, non-adjacent intervals
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_TID_CONTAINER_H_
