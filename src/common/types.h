/// \file types.h
/// \brief Fundamental scalar type aliases shared by every Butterfly module.

#ifndef BUTTERFLY_COMMON_TYPES_H_
#define BUTTERFLY_COMMON_TYPES_H_

#include <cstdint>

namespace butterfly {

/// An item identifier. Items form the alphabet `I = {i1, ..., iM}` of the
/// stream; transactions and itemsets are sets of items.
using Item = uint32_t;

/// A transaction identifier: the 1-based position of a record in the stream.
using Tid = uint64_t;

/// A support count: the number of records in a window that satisfy an itemset
/// or a pattern. Signed so that inclusion-exclusion sums (which alternate
/// signs) and perturbed supports (which may briefly dip below zero from the
/// adversary's point of view) are representable.
using Support = int64_t;

/// Sentinel used by algorithms that need an "invalid item" marker. No stream
/// record may hold it: the CET marks its root with it, so fleet ingest and
/// checkpoint restore reject a record that does.
inline constexpr Item kInvalidItem = static_cast<Item>(-1);

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_TYPES_H_
