/// \file itemset.h
/// \brief Itemset: an immutable-by-convention sorted set of items.
///
/// Itemsets are the unit of currency of frequent-pattern mining: transactions
/// are itemsets, mined patterns are itemsets, and the adversary's lattice
/// `X_I^J = {X | I subseteq X subseteq J}` is a family of itemsets. The
/// representation is a sorted, duplicate-free item array. Up to kInline items
/// live inside the 32-byte object, so a stream's short records and mined
/// itemsets make no heap block each; only a larger set allocates. The array
/// moves with its object: no pointer into an Itemset survives a move of it,
/// and `begin()` and `end()` must come from the same object.

#ifndef BUTTERFLY_COMMON_ITEMSET_H_
#define BUTTERFLY_COMMON_ITEMSET_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>

#include "common/types.h"

namespace butterfly {

/// A sorted, duplicate-free set of items.
class Itemset {
 public:
  /// Items stored inside the object; a larger set holds a heap array.
  static constexpr size_t kInline = 6;

  /// Creates the empty itemset.
  Itemset() = default;

  /// Creates an itemset from arbitrary (possibly unsorted, duplicated) items.
  explicit Itemset(std::span<const Item> items);

  /// Convenience literal syntax: `Itemset{1, 2, 3}`.
  Itemset(std::initializer_list<Item> items)
      : Itemset(std::span<const Item>(items)) {}

  /// Builds an itemset from items that the caller guarantees are already
  /// sorted and duplicate-free; skips normalization. Checked in debug builds.
  static Itemset FromSorted(std::span<const Item> sorted_items);
  static Itemset FromSorted(std::initializer_list<Item> sorted_items) {
    return FromSorted(std::span<const Item>(sorted_items));
  }

  Itemset(const Itemset& other) { CopyItems(other); }
  Itemset(Itemset&& other) noexcept { MoveItems(other); }
  Itemset& operator=(const Itemset& other) {
    if (this != &other) CopyItems(other);
    return *this;
  }
  Itemset& operator=(Itemset&& other) noexcept {
    if (this != &other) MoveItems(other);
    return *this;
  }
  ~Itemset() {
    if (on_heap()) delete[] heap_;
  }

  /// Number of items.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Sorted item access. Valid until this itemset is modified or moved.
  std::span<const Item> items() const { return {data(), size_}; }
  Item operator[](size_t i) const { return data()[i]; }
  const Item* begin() const { return data(); }
  const Item* end() const { return data() + size_; }

  /// True iff \p item is a member.
  bool Contains(Item item) const;

  /// True iff every item of \p other is a member (improper subset allowed).
  bool ContainsAll(const Itemset& other) const;

  /// True iff this is a subset of \p other (improper allowed).
  bool IsSubsetOf(const Itemset& other) const { return other.ContainsAll(*this); }

  /// True iff this is a strict subset of \p other.
  bool IsStrictSubsetOf(const Itemset& other) const {
    return size() < other.size() && IsSubsetOf(other);
  }

  /// True iff the two itemsets share no item.
  bool DisjointWith(const Itemset& other) const;

  /// Set union (`IJ` in the paper's notation).
  Itemset Union(const Itemset& other) const;

  /// Set union with a single item.
  Itemset With(Item item) const;

  /// In-place form of With for steady-state reuse: *this = base ∪ {item},
  /// reusing this itemset's existing storage (no allocation once the
  /// capacity suffices). \p base must not alias *this.
  void AssignWith(const Itemset& base, Item item);

  /// Set difference (`J \ I` in the paper's notation).
  Itemset Minus(const Itemset& other) const;

  /// Set difference with a single item.
  Itemset Without(Item item) const;

  /// Set intersection.
  Itemset Intersect(const Itemset& other) const;

  /// Lexicographic comparison on the sorted item sequences. This is the
  /// canonical total order used by miners and by the CET.
  std::strong_ordering operator<=>(const Itemset& other) const {
    return std::lexicographical_compare_three_way(begin(), end(),
                                                  other.begin(), other.end());
  }
  bool operator==(const Itemset& other) const {
    return size_ == other.size_ && std::equal(begin(), end(), other.begin());
  }

  /// Renders as `{a, b, c}` with numeric item ids.
  std::string ToString() const;

  /// FNV-1a hash of the item sequence, for unordered containers.
  size_t Hash() const;

 private:
  bool on_heap() const { return capacity_ > kInline; }
  const Item* data() const { return on_heap() ? heap_ : inline_; }

  /// Sets the size to \p n, discarding the items, and returns the storage.
  /// Allocates only when \p n exceeds the capacity.
  Item* Reset(size_t n);

  /// The set that \p write leaves in at most \p bound items: it writes them
  /// from the pointer it is given and returns the end of what it wrote.
  template <typename Write>
  static Itemset Build(size_t bound, const Write& write);

  /// Replaces the items with \p other's. Between two inline sets this is
  /// one fixed 24-byte copy rather than a loop over the size.
  void CopyItems(const Itemset& other) {
    if (on_heap() || other.on_heap()) {
      // A heap array of this set's own is kept when the items fit in it.
      std::copy(other.begin(), other.end(), Reset(other.size_));
    } else {
      std::memcpy(inline_, other.inline_, sizeof(inline_));
      size_ = other.size_;
    }
  }

  /// Replaces the items with \p other's and leaves \p other empty; a heap
  /// array changes hands.
  void MoveItems(Itemset& other) noexcept {
    if (other.on_heap()) {
      if (on_heap()) delete[] heap_;
      heap_ = other.heap_;
      capacity_ = std::exchange(other.capacity_, uint32_t{kInline});
      size_ = other.size_;
    } else {
      CopyItems(other);  // inline items fit any set without allocating
    }
    other.size_ = 0;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;  ///< > kInline iff heap_ is live
  union {
    Item inline_[kInline] = {};
    Item* heap_;
  };
};

static_assert(sizeof(Itemset) == 32, "size, capacity and six inline items");

/// Hash functor so `Itemset` can key `std::unordered_map` / `set`.
struct ItemsetHash {
  size_t operator()(const Itemset& s) const { return s.Hash(); }
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_ITEMSET_H_
