/// \file bitmap_kernels.h
/// \brief Word-at-a-time kernels behind Bitmap and the hybrid tid-containers.
///
/// The two intersection shapes the window index performs — dense ∧ dense
/// (the CET refine hot loop) and dense ∧ sorted-slot array — live here as
/// free functions over raw 64-bit word arrays, each fused with the popcount
/// of its result so the hot path pays one pass.
///
/// Every kernel is one plain scalar loop: one AND (or mask build) and one
/// PopCount per word, in ascending word order, with no hand-written SIMD
/// twin and no dispatch. Integer AND and popcount have one answer, so a
/// build that vectorizes these loops or inlines POPCNT returns the same
/// words and counts. The array kernels are bounded by container
/// cardinality, not by H.

#ifndef BUTTERFLY_COMMON_BITMAP_KERNELS_H_
#define BUTTERFLY_COMMON_BITMAP_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace butterfly {

/// dst = a & b over \p n words (dst may alias a or b); returns the popcount
/// of the result.
size_t AndWordsPopcount(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                        size_t n);

/// Popcount of \p n words.
size_t PopcountWords(const uint64_t* words, size_t n);

/// dst = a (plain copy of \p n words; dst may alias a).
void CopyWords(uint64_t* dst, const uint64_t* src, size_t n);

/// out = base ∩ {slots[0..n)} where slots is strictly ascending; \p out
/// (spanning \p out_words words) is fully overwritten. Returns the popcount.
/// O(n) in the array cardinality, independent of the slot-space size.
size_t AndBitmapArrayPopcount(uint64_t* out, size_t out_words,
                              const uint64_t* base, const uint16_t* slots,
                              size_t n);

/// In-place base &= {slots[0..n)}: the aliasing-safe variant for AND chains
/// (Tidset over multi-item itemsets), O(words + n). Returns the popcount.
size_t AndBitmapArrayInplace(uint64_t* base, size_t words,
                             const uint16_t* slots, size_t n);

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_BITMAP_KERNELS_H_
