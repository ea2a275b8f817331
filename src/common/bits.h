/// \file bits.h
/// \brief The repo's one audited set of bit-manipulation primitives.
///
/// Every popcount / trailing-zero count in the tree goes through these
/// wrappers instead of compiler builtins sprinkled at call sites: one place
/// to audit for signedness pitfalls (the historical `__builtin_popcount` on
/// an implicitly narrowed value) and one place a future target port touches.
/// All of them are constexpr. The build passes no -m flag, so it targets
/// baseline x86-64, which has no POPCNT: g++ compiles PopCount to a call to
/// libgcc's __popcountdi2 (`nm` lists it undefined in bitmap_kernels.cc.o
/// and freqsat.cc.o), one call per word even in the SSE2 AND kernel.
/// CountrZero compiles inline (tzcnt and a zero test).

#ifndef BUTTERFLY_COMMON_BITS_H_
#define BUTTERFLY_COMMON_BITS_H_

#include <bit>
#include <cstdint>

namespace butterfly {

/// Number of set bits.
constexpr int PopCount(uint32_t v) { return std::popcount(v); }
constexpr int PopCount(uint64_t v) { return std::popcount(v); }

/// True iff \p v has an even number of set bits — the inclusion–exclusion
/// sign test used by the subset-mask sweeps in src/inference.
constexpr bool EvenParity(uint32_t v) { return (PopCount(v) & 1) == 0; }

/// Number of trailing zero bits (the index of the lowest set bit);
/// 32/64 for zero input, matching std::countr_zero.
constexpr int CountrZero(uint32_t v) { return std::countr_zero(v); }
constexpr int CountrZero(uint64_t v) { return std::countr_zero(v); }

/// Clears the lowest set bit — the classic set-bit iteration step.
constexpr uint32_t ClearLowestBit(uint32_t v) { return v & (v - 1); }
constexpr uint64_t ClearLowestBit(uint64_t v) { return v & (v - 1); }

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_BITS_H_
