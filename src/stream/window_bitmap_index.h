/// \file window_bitmap_index.h
/// \brief Vertical bitmap index of a sliding window.
///
/// The index maintains, per live item, a tid-bitmap over the H window slots
/// (slot = arrival position mod H, so an arriving record reuses the slot of
/// the record it evicts). A single bit flips per (item, slide) on append and
/// on evict, and every question the Moment miner used to answer by rescanning
/// window transactions becomes word arithmetic:
///
///  * tidset(I)  = AND of the item rows of I          (O(|I| · H/64) words)
///  * support(I) = popcount(tidset(I))
///  * tidset(I ∪ {j}) = tidset(I) & row(j)            (the CET child refine)
///
/// Item rows are stored densely via ItemRemap, so the row table is bounded by
/// the number of items concurrently in scope, not the stream's lifetime
/// universe; a row whose last bit clears returns its dense slot for reuse.
/// The index also keeps a per-slot pointer to the in-scope Transaction so a
/// tidset can be walked back to records (deque pointers are stable across
/// push_back/pop_front, which is all SlidingWindow does).
///
/// ## Row stores
/// The index has two row representations behind one API:
///
///  * `IndexRowStore::kDense` — one H-bit `Bitmap` per live item (the
///    original layout). Per-row cost is WordsFor(H)*8 bytes regardless of
///    how rare the item is.
///  * `IndexRowStore::kHybrid` — one `TidContainer` per live item: a sorted
///    slot array up to TidContainer::ArrayLimit(H) members, a bitmap above
///    it (roaring-style; see tid_container.h). At power-law million-item
///    alphabets almost every row is near-empty, so this collapses the row
///    table from gigabytes of zero words to a few bytes per rare item, while
///    hot rows keep the Moment refine loop on the word-AND shape.
///
/// Both stores answer every query with identical bits (containers are exact
/// — pinned by the dense-vs-hybrid fuzz grid), so mined output, release
/// logs, and supports are bit-identical across stores. A hybrid row's form
/// is a function of its cardinality and H alone, so an index rebuilt from a
/// window equals the live one, MemoryStats() included. Hybrid needs
/// H <= kMaxWindow (containers address slots with uint16).

#ifndef BUTTERFLY_STREAM_WINDOW_BITMAP_INDEX_H_
#define BUTTERFLY_STREAM_WINDOW_BITMAP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitmap.h"
#include "common/item_remap.h"
#include "common/status.h"
#include "common/tid_container.h"
#include "common/transaction.h"
#include "stream/sliding_window.h"

namespace butterfly {

/// Row representation of the window index (see file comment).
enum class IndexRowStore : uint8_t {
  kDense = 0,   ///< one dense H-bit Bitmap per live item
  kHybrid = 1,  ///< hybrid array/bitmap TidContainer per live item
};

/// Largest window capacity H of any engine, whatever its row store, for two
/// reasons: a hybrid index's containers address slots with uint16, and
/// every index sizes its slot table from H, which a restore reads from an
/// untrusted snapshot, so H must be bounded before anything is allocated.
/// StreamPrivacyEngine::Create and FleetConfig::Validate reject a larger
/// window with InvalidArgument; the index constructor CHECKs it for hybrid.
constexpr size_t kMaxWindow = size_t{1} << 16;

/// Memory accounting of the live row table: the gauge behind
/// `FleetStats::index_bytes` and the bench memory columns.
struct IndexMemoryStats {
  /// Payload bytes of the live rows in their current representation.
  size_t index_bytes = 0;
  /// What the same rows would cost as dense bitmaps:
  /// live_items * WordsFor(H) * 8. For the dense store the two are equal.
  size_t dense_equivalent_bytes = 0;
  /// Live-row histogram by representation (dense rows count as bitmap).
  size_t array_rows = 0;
  size_t bitmap_rows = 0;

  friend bool operator==(const IndexMemoryStats&,
                         const IndexMemoryStats&) = default;
};

/// Per-item tid-bitmaps over the current window, one bit per slot.
class WindowBitmapIndex {
 public:
  /// \param capacity the window size H (> 0).
  /// \param store the row representation; kHybrid requires
  ///        H <= kMaxWindow.
  explicit WindowBitmapIndex(size_t capacity,
                             IndexRowStore store = IndexRowStore::kDense);

  /// Mirrors one SlidingWindow::Append: \p added is the record just appended
  /// (its pointer must stay valid while in scope — the window's deque element
  /// qualifies), \p evicted the record it displaced, or nullptr while the
  /// window is filling. Flips one bit per item of each.
  void Apply(const Transaction* added, const Transaction* evicted);

  size_t capacity() const { return capacity_; }
  /// Number of records currently in scope.
  size_t size() const { return size_; }
  IndexRowStore row_store() const { return store_; }

  /// Live-row memory accounting: one pass over the dense ids, with no copy,
  /// sort or allocation (O(dense_limit())).
  IndexMemoryStats MemoryStats() const;

  /// Computes tidset(I) into \p out (resized to H bits) and returns its
  /// popcount, i.e. the exact support of \p itemset in the window. The empty
  /// itemset yields every in-scope slot. An itemset with an unindexed item
  /// yields the empty tidset.
  Support Tidset(const Itemset& itemset, Bitmap* out) const;

  /// out = base & row(item); returns the popcount (the support of I ∪ {j}
  /// given tidset(I) = base). An unindexed item yields the empty tidset.
  Support Refine(const Bitmap& base, Item item, Bitmap* out) const;

  /// Support of \p itemset without keeping the tidset.
  Support SupportOf(const Itemset& itemset) const;

  /// Support of the single item \p item: its row's set-bit count, read
  /// without touching the row; 0 when the item is out of scope.
  Support ItemSupport(Item item) const {
    const uint32_t dense = remap_.Find(item);
    return dense == ItemRemap::kNone ? 0 : row_counts_[dense];
  }

  /// The in-scope record occupying \p slot; valid only for set bits of a
  /// current tidset.
  const Transaction* transaction(size_t slot) const { return slots_[slot]; }

  /// Number of live item rows (== items with at least one set bit).
  size_t live_items() const { return remap_.live(); }

  /// Dense id of \p item, or ItemRemap::kNone when the item is out of scope.
  /// Dense ids are < dense_limit() and are recycled as items leave the
  /// window, so callers can size scratch tables by dense_limit().
  uint32_t DenseId(Item item) const { return remap_.Find(item); }
  size_t dense_limit() const { return remap_.dense_limit(); }

  /// Deep self-check against the ground-truth window contents: every row
  /// matches a recount, live slots match, no dead row has a set bit, and
  /// every hybrid row holds the form TidContainer::ChooseKind gives its
  /// cardinality. O(items × H); for tests.
  Status Validate(const SlidingWindow& window) const;

  /// Replaces the whole index with one built from \p window (same capacity),
  /// at the slots the live run used: the record at deque position p goes to
  /// slot (stream_position - size + p) mod H, through Apply. This is how a
  /// restore derives the index; the checkpoint holds only the window. Every
  /// row equals the live run's, in slots and in form, so MemoryStats()
  /// equals the live index's for either store.
  void Rebuild(const SlidingWindow& window);

 private:
  /// Row of \p item, or nullptr when the item is not in scope (dense store).
  const Bitmap* Row(Item item) const;
  /// Row of \p item, or nullptr when out of scope (hybrid store).
  const TidContainer* HybridRow(Item item) const;

  void SetBit(Item item, size_t slot);
  void ClearBit(Item item, size_t slot);

  size_t capacity_;
  IndexRowStore store_;
  size_t size_ = 0;
  size_t next_slot_ = 0;  ///< slot the next arrival will occupy
  ItemRemap remap_;
  std::vector<Bitmap> rows_;               ///< dense store: id -> slot bitmap
  std::vector<TidContainer> hybrid_rows_;  ///< hybrid store: id -> container
  std::vector<uint32_t> row_counts_;       ///< dense item id -> set-bit count
  std::vector<const Transaction*> slots_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_STREAM_WINDOW_BITMAP_INDEX_H_
