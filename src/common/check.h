/// \file check.h
/// \brief Contract assertion macros (BFLY_CHECK / BFLY_DCHECK) and checked
/// narrowing casts.
///
/// Butterfly's correctness story rests on invariants no unit test fully
/// pins down: arena link/free-list integrity in the CET, the bitmap index's
/// eviction bit-flip protocol, serializer bounds, and the monotone-estimator
/// postcondition of the bias DP (Algorithm 1). These macros make those
/// invariants executable:
///
///  - BFLY_CHECK(cond)      — always on, aborts with file:line and the
///                            failed expression. For cheap contracts whose
///                            violation means a privacy or corruption bug.
///  - BFLY_DCHECK(cond)     — compiled out in release builds unless
///                            BUTTERFLY_DCHECK_ALWAYS_ON is defined (the
///                            sanitizer CI jobs define it), so O(n) integrity
///                            walks cost nothing in production.
///  - BFLY_CHECK_MSG / BFLY_DCHECK_MSG — same, with a context message.
///  - checked_cast<To>(v)   — narrowing integer cast that BFLY_CHECKs the
///                            value is representable in To (the fix for the
///                            -Wconversion class of silent truncation bugs).
///  - checked_int64(d)      — the same for a rounded double: BFLY_CHECKs
///                            that it is a number inside int64's range.

#ifndef BUTTERFLY_COMMON_CHECK_H_
#define BUTTERFLY_COMMON_CHECK_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>

namespace butterfly {
namespace internal {

/// Prints a contract failure and aborts. Out of line in spirit but kept
/// header-only so check.h has no .cc dependency; marked noinline/cold so the
/// failure path does not bloat call sites.
[[noreturn]] inline void CheckFail(const char* kind, const char* expr,
                                   const char* file, int line,
                                   const char* message) {
  if (message != nullptr && message[0] != '\0') {
    std::fprintf(stderr, "%s failed: %s at %s:%d: %s\n", kind, expr, file,
                 line, message);
  } else {
    std::fprintf(stderr, "%s failed: %s at %s:%d\n", kind, expr, file, line);
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal

#define BFLY_CHECK(cond)                                                     \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::butterfly::internal::CheckFail("BFLY_CHECK", #cond, __FILE__,        \
                                       __LINE__, nullptr);                   \
    }                                                                        \
  } while (false)

#define BFLY_CHECK_MSG(cond, message)                                        \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::butterfly::internal::CheckFail("BFLY_CHECK", #cond, __FILE__,        \
                                       __LINE__, (message));                 \
    }                                                                        \
  } while (false)

// Debug checks stay active in debug builds and in any build that defines
// BUTTERFLY_DCHECK_ALWAYS_ON (the ASAN/UBSAN/TSAN CI jobs do), and compile
// to nothing otherwise. The `false &&` form keeps the condition
// syntax-checked and its variables "used" in release builds.
#if !defined(NDEBUG) || defined(BUTTERFLY_DCHECK_ALWAYS_ON)
#define BFLY_DCHECK_IS_ON() 1
#define BFLY_DCHECK(cond) BFLY_CHECK(cond)
#define BFLY_DCHECK_MSG(cond, message) BFLY_CHECK_MSG(cond, message)
#else
#define BFLY_DCHECK_IS_ON() 0
#define BFLY_DCHECK(cond)                                                    \
  do {                                                                       \
    if (false && !(cond)) {                                                  \
    }                                                                        \
  } while (false)
#define BFLY_DCHECK_MSG(cond, message)                                       \
  do {                                                                       \
    if (false && !(cond)) {                                                  \
      (void)(message);                                                       \
    }                                                                        \
  } while (false)
#endif

/// Narrowing integer conversion that aborts if the value does not round-trip.
/// Use at serialization boundaries and index narrowings where an
/// out-of-range value indicates corruption, not a modeling choice.
template <typename To, typename From>
constexpr To checked_cast(From value) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "checked_cast is for integer narrowing only");
  BFLY_CHECK_MSG(std::in_range<To>(value),
                 "integer narrowing lost information");
  return static_cast<To>(value);
}

/// Converts a double that floor, ceil or round produced to int64_t, aborting
/// on NaN and on values outside int64's range, where the plain cast is
/// undefined behaviour. ButterflyConfig::Validate bounds ε and δ so that no
/// configured release reaches the abort.
inline int64_t checked_int64(double value) {
  BFLY_CHECK_MSG(value >= -0x1p63 && value < 0x1p63,
                 "double outside the int64 range");
  return static_cast<int64_t>(value);
}

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_CHECK_H_
