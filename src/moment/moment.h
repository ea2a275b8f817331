/// \file moment.h
/// \brief Moment-style maintenance of closed frequent itemsets over a sliding
/// window (Chi, Wang, Yu & Muntz, ICDM'04) — the stream-mining substrate the
/// paper builds Butterfly on.
///
/// The miner maintains a *closed enumeration tree* (CET). Each node stands
/// for an itemset I (the path of branch items from the root) and carries the
/// node taxonomy of the Moment paper:
///
///  * infrequent gateway node — I is infrequent. Moment keeps it as a
///    boundary leaf; here it is only a count in its parent (see below);
///  * unpromising gateway node — I is frequent but some item j < max(I)
///    outside I appears in every window record containing I
///    (tidset(I) ⊆ tidset(j)); then neither I nor any descendant can be
///    closed, so the subtree is pruned;
///  * intermediate node — frequent, promising, but some extension preserves
///    its support (not closed);
///  * closed node — frequent and closed.
///
/// Instead of Moment's tid-sum hash, each node carries its extension-count
/// table `j -> T(I ∪ {j})`, which a record arrival/expiry updates in
/// O(|record|) per affected node and which answers all three questions
/// (children supports, the unpromising check, closedness) exactly.
/// Expiries can only create unpromising blockers and arrivals can only break
/// them, so transitions are localized, exactly as in Moment.
///
/// The tree is frequent-only. It stores only frequent nodes, and a node
/// counts only the window's frequent items F (T({j}) >= C). An item j
/// outside F cannot matter to a stored node I: T(I ∪ {j}) <= T({j}) < C <=
/// T(I), so j is never a frequent child, an unpromising blocker or a closure
/// witness of I. Infrequent gateways are therefore counted, not stored:
/// Stats() derives them from the index. Per-record maintenance scales with
/// the frequent part of the record, not with the alphabet. When an item
/// crosses C, one walk over its own records adds or erases its counts (see
/// Append and DESIGN.md §9).
///
/// Two layout decisions make the maintenance fast (see DESIGN.md):
///
///  * a WindowBitmapIndex (vertical per-item tid-bitmaps over the H window
///    slots) answers every "which records contain I" question — child
///    creation, unpromising un-blocking, subtree exploration, the crossing
///    walks — by AND + popcount over 64-bit words instead of rescanning the
///    window;
///  * CET nodes live in an arena (contiguous pool, uint32 index links,
///    free-list reuse) with flat sorted child and extension-count arrays, so
///    steady-state maintenance performs no per-node heap allocation and no
///    pointer-chasing through std::map nodes.
///
/// The mined output is bit-identical (same closed itemsets, same supports,
/// same canonical order) to the map-based reference implementation preserved
/// in map_cet_miner.h, which the equivalence test suites pin it against.

#ifndef BUTTERFLY_MOMENT_MOMENT_H_
#define BUTTERFLY_MOMENT_MOMENT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/status.h"
#include "common/transaction.h"
#include "mining/mining_result.h"
#include "stream/sliding_window.h"
#include "stream/window_bitmap_index.h"

namespace butterfly {

namespace persist {
class CheckpointWriter;
class CheckpointReader;
}  // namespace persist

/// Counts of CET nodes by kind (see file comment), for tests and
/// diagnostics. Infrequent gateways are not stored; they are counted from the
/// window: per promising node, the items above its branch item that
/// co-occur with it fewer than C times.
struct MomentStats {
  size_t infrequent_gateway = 0;
  size_t unpromising_gateway = 0;
  size_t intermediate = 0;
  size_t closed = 0;

  size_t total() const {
    return infrequent_gateway + unpromising_gateway + intermediate + closed;
  }
};

/// Occupancy of the CET node arena, for the steady-state reuse tests: once a
/// workload's node population stabilizes, `capacity` stops growing and churn
/// is served entirely from the free list.
struct MomentArenaStats {
  size_t capacity = 0;  ///< nodes ever materialized (pool size, incl. root)
  size_t live = 0;      ///< nodes currently in the tree (incl. root)
  size_t free_list = 0; ///< pooled nodes awaiting reuse
};

/// Incremental closed-frequent-itemset miner over a sliding window.
class MomentMiner {
 public:
  /// \param window_capacity the window size H (> 0).
  /// \param min_support the minimum support C (> 0).
  /// \param row_store the window-index row representation; hybrid trades the
  ///        dense per-item bitmaps for compressed containers with identical
  ///        mined output (see window_bitmap_index.h).
  MomentMiner(size_t window_capacity, Support min_support,
              IndexRowStore row_store = IndexRowStore::kDense);
  ~MomentMiner();

  MomentMiner(const MomentMiner&) = delete;
  MomentMiner& operator=(const MomentMiner&) = delete;
  MomentMiner(MomentMiner&&) noexcept;
  MomentMiner& operator=(MomentMiner&&) noexcept;

  /// Appends the next stream record, expiring the oldest if the window is
  /// full, and updates the bitmap index and the CET incrementally: the
  /// expiry and the arrival each touch only the stored nodes contained in
  /// the frequent part of their record, and an item that crosses C walks
  /// its own records once to add or erase its counts. The record must not
  /// hold kInvalidItem, which marks the CET root.
  void Append(Transaction t);

  Support min_support() const { return min_support_; }
  const SlidingWindow& window() const { return window_; }
  /// The vertical bitmap index mirroring the window contents.
  const WindowBitmapIndex& bitmap_index() const { return index_; }

  /// The closed frequent itemsets of the current window, with exact supports.
  MiningOutput GetClosedFrequent() const;

  /// The support of one itemset, answered from the CET without materializing
  /// the full output: T(X) = max{T(Z) : Z closed, X ⊆ Z}, and T(∅) = |W|.
  /// Returns nullopt when X is not frequent in the current window.
  std::optional<Support> SupportOf(const Itemset& itemset) const;

  /// All frequent itemsets of the current window, with exact supports, in
  /// canonical order. One pre-order walk of the CET, O(output): a stored
  /// node emits itself, and an unpromising node U with blocker b then emits
  /// its unstored subtree by copying, without b, the already-emitted
  /// itemsets that extend U ∪ {b} (DESIGN.md §9).
  MiningOutput GetAllFrequent() const;

  /// Node counts by kind. Reads the window for the infrequent gateways:
  /// O(frequent nodes × their records); for tests and diagnostics.
  MomentStats Stats() const;

  /// Node-arena occupancy (for the allocation-reuse tests).
  MomentArenaStats arena_stats() const;

  /// Deep self-check: recounts from the window every node's support and its
  /// extension counts over the window's frequent items, and re-derives its
  /// kind and the children invariant (a promising node's children are
  /// exactly its extension items above its branch item counted at least C
  /// times); also cross-checks the bitmap index against the
  /// window contents and the arena's free-list accounting against the
  /// reachable tree. O(nodes × window); intended for tests and debugging,
  /// not the hot path. Returns the first violation.
  Status Validate() const;

  /// Serializes min_support and the window. The bitmap index and the CET are
  /// functions of the window and C, so they are not written.
  void Checkpoint(persist::CheckpointWriter* writer) const;

  /// Restores from a checkpoint section into a miner constructed with the
  /// same window capacity and min_support (both validated). Returns Status
  /// errors, never asserts, on mismatched parameters or corrupted sections;
  /// on error the miner is unchanged. On success it rebuilds the index from
  /// the window (WindowBitmapIndex::Rebuild) and grows the CET from a bare
  /// root over the whole window, so the restored miner passes Validate() by
  /// construction.
  Status Restore(persist::CheckpointReader* reader);

 private:
  struct CetNode;
  static constexpr uint32_t kRoot = 0;
  static constexpr uint32_t kNoNode = static_cast<uint32_t>(-1);

  CetNode& N(uint32_t idx);
  const CetNode& N(uint32_t idx) const;

  /// Takes a node from the free list (or grows the arena) and resets it.
  /// Growing invalidates CetNode references — callers re-fetch via N().
  uint32_t AllocNode();
  /// Returns a leaf to the free list, keeping its buffers for reuse.
  void FreeNode(uint32_t idx);
  /// Frees a node's entire child subtree and clears its child array.
  void FreeChildren(uint32_t idx);

  /// Applies an arrival whose frequent items are \p items (sorted) to the
  /// subtree of idx, which the record contains; creates a child when its
  /// extension count reaches C.
  void UpdateAdd(uint32_t idx, const std::vector<Item>& items);
  /// Applies an expiry whose frequent items are \p items. Returns true if
  /// the node fell below C: its parent then frees it with its subtree.
  bool UpdateDelete(uint32_t idx, const std::vector<Item>& items);

  /// For each window record that holds item \p j, except \p skip, adds
  /// \p delta (+1 or -1) to j's extension count at every stored node the
  /// record contains. Inserts an entry at 1 and erases one at 0.
  void ShiftItemCounts(Item j, int delta, const Transaction* skip);

  /// Derives a new node's extension counts from its tidset (expected in
  /// tidset_scratch_[depth]) and builds its subtree.
  void Explore(uint32_t idx, size_t depth);

  /// Builds the children of a node whose ext_counts are current and whose
  /// tidset is in tidset_scratch_[depth].
  void ExpandFromCounts(uint32_t idx, size_t depth);

  /// Recounts ext_counts over the frequent items from the tidset in
  /// tidset_scratch_[depth].
  void BuildExtCounts(uint32_t idx, size_t depth);

  /// Merges \p items (minus the node's own items) into the node's sorted
  /// extension-count array: +1 per present item, insert-at-1 for new
  /// co-occurrences.
  void MergeAddExtCounts(CetNode* node, const std::vector<Item>& items);
  /// Inverse of MergeAddExtCounts; drops counts that reach zero.
  static void MergeSubExtCounts(CetNode* node, const std::vector<Item>& items);

  /// True iff a frequent node is closed: none of its extension counts
  /// equals its support. Read on demand, never stored.
  static bool IsClosed(const CetNode& node);

  /// The first item j < max(I) outside I that occurs in every record
  /// containing I (T(I ∪ {j}) = T(I)), or kInvalidItem if there is none.
  static Item Blocker(const CetNode& node);

  /// True iff the node has a Blocker.
  static bool HasUnpromisingBlocker(const CetNode& node);

  /// tidset_scratch_[depth], grown on demand (deque: growth keeps existing
  /// references valid across the recursion that holds them).
  Bitmap& ScratchAt(size_t depth);

  /// fn(node) over the subtree of idx in canonical (depth-first, ascending
  /// branch item) order.
  template <typename Fn>
  void VisitTree(uint32_t idx, const Fn& fn) const;

  /// fn(&node) over the stored nodes of the subtree of idx that \p record
  /// contains (idx itself must be one), in VisitTree's order.
  template <typename Fn>
  void VisitContained(uint32_t idx, const Itemset& record, const Fn& fn);

  SlidingWindow window_;
  Support min_support_;
  WindowBitmapIndex index_;

  // --- CET node arena: contiguous pool + free list, uint32 links.
  std::vector<CetNode> arena_;
  std::vector<uint32_t> free_;

  // --- reusable scratch (no steady-state allocation).
  std::deque<Bitmap> tidset_scratch_;     ///< per-depth tidsets
  std::vector<Support> count_scratch_;    ///< dense item id -> running count
  std::vector<Item> touched_scratch_;     ///< items seen by BuildExtCounts
  std::vector<Item> missing_scratch_;     ///< new items in MergeAddExtCounts
  std::vector<Item> frequent_scratch_;    ///< a record's items in F
};

}  // namespace butterfly

#endif  // BUTTERFLY_MOMENT_MOMENT_H_
