/// \file bitmap.h
/// \brief Fixed-capacity bitset over 64-bit words, built for the vertical
/// window index: per-item tid-bitmaps whose AND + popcount replaces
/// transaction rescans in the Moment hot path.
///
/// Unlike std::vector<bool> / std::bitset this exposes the word array and the
/// word-wise combinators (AssignAnd, AndWith) the miner needs, keeps its
/// allocation when cleared or resized downward (steady-state reuse), and
/// iterates set bits with countr_zero rather than per-bit tests.

#ifndef BUTTERFLY_COMMON_BITMAP_H_
#define BUTTERFLY_COMMON_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitmap_kernels.h"
#include "common/check.h"

namespace butterfly {

/// A resizable bitset with word-level access.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t bits) { Resize(bits); }

  /// Number of addressable bits.
  size_t size() const { return bits_; }
  size_t word_count() const { return words_.size(); }

  /// Resizes to \p bits, zeroing any newly exposed tail. Never releases
  /// capacity, so a steady-state Resize is allocation-free.
  void Resize(size_t bits) {
    const size_t words = WordsFor(bits);
    if (words > words_.size()) {
      words_.resize(words, 0);
    } else {
      // Shrinking: drop the logical size but keep (zeroed) storage.
      for (size_t w = words; w < words_.size(); ++w) words_[w] = 0;
      words_.resize(words);
    }
    bits_ = bits;
    ClearTail();
  }

  /// Zeroes every bit; keeps the size and the allocation.
  void ClearAll() {
    for (uint64_t& w : words_) w = 0;
  }

  void Set(size_t i) {
    BFLY_DCHECK_MSG(i < bits_, "bit index out of range");
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Clear(size_t i) {
    BFLY_DCHECK_MSG(i < bits_, "bit index out of range");
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  bool Test(size_t i) const {
    BFLY_DCHECK_MSG(i < bits_, "bit index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Sets bits [0, n); clears the rest. Used for the "all in-scope slots"
  /// tidset of the empty itemset while the window is still filling.
  void SetFirst(size_t n) {
    BFLY_DCHECK_MSG(n <= bits_, "prefix length exceeds bitmap size");
    size_t full = n >> 6;
    for (size_t w = 0; w < full; ++w) words_[w] = ~uint64_t{0};
    if (full < words_.size()) {
      words_[full] = (n & 63) ? ((uint64_t{1} << (n & 63)) - 1) : 0;
      for (size_t w = full + 1; w < words_.size(); ++w) words_[w] = 0;
    }
  }

  /// Number of set bits.
  size_t Popcount() const { return PopcountWords(words_.data(), words_.size()); }

  bool AnySet() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// *this = a & b (the operands must share this bitmap's size). Returns the
  /// popcount of the result, fused so the hot path pays one pass.
  size_t AssignAnd(const Bitmap& a, const Bitmap& b) {
    BFLY_DCHECK_MSG(a.bits_ == b.bits_, "AND of mismatched bitmaps");
    Resize(a.bits_);
    return AndWordsPopcount(words_.data(), a.words_.data(), b.words_.data(),
                            words_.size());
  }

  /// *this &= other. Returns the popcount of the result.
  size_t AndWith(const Bitmap& other) {
    BFLY_DCHECK_MSG(bits_ == other.bits_, "AND of mismatched bitmaps");
    return AndWordsPopcount(words_.data(), words_.data(), other.words_.data(),
                            words_.size());
  }

  /// Copies \p other into *this, reusing storage.
  void Assign(const Bitmap& other) {
    Resize(other.bits_);
    CopyWords(words_.data(), other.words_.data(), words_.size());
  }

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(const Fn& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn((w << 6) + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  bool operator==(const Bitmap& other) const {
    return bits_ == other.bits_ && words_ == other.words_;
  }

  /// The backing word array (tail bits past size() are zero). Exposed for
  /// the kernel layer; word layout is little-endian bit order (bit i lives
  /// in word i>>6 at position i&63).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Mutable word array for the kernel layer (tid-container intersections
  /// write their result words directly). Callers must keep tail bits past
  /// size() zero — every kernel masks against in-scope base words, so a
  /// zero-tailed base keeps the invariant.
  uint64_t* mutable_words() { return words_.data(); }

  /// Words needed to address \p bits bits.
  static size_t WordsFor(size_t bits) { return (bits + 63) >> 6; }

 private:
  /// Keeps bits past size() zero so Popcount/ForEachSetBit stay exact.
  void ClearTail() {
    if ((bits_ & 63) != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << (bits_ & 63)) - 1;
    }
  }

  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_BITMAP_H_
