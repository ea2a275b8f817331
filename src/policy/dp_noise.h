/// \file dp_noise.h
/// \brief Continuous noise samplers for the DP release policies, driven by
/// counter-based streams only.
///
/// Every sampler takes a CounterRng so a draw is a pure function of the
/// stream's key — (seed, epoch, identity) — never of draw order. That is the
/// same determinism contract the Butterfly sanitizer carries (bit-identical
/// releases at any thread count and across checkpoint/restore), extended to
/// the Laplace/Gumbel draws the DP mechanisms need.

#ifndef BUTTERFLY_POLICY_DP_NOISE_H_
#define BUTTERFLY_POLICY_DP_NOISE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace butterfly {

/// Key-space domain separators: folded into the seed word so two policies
/// (or two stages of one policy) sharing an engine seed never share a noise
/// stream. Arbitrary odd constants, pinned by the conformance tests.
inline constexpr uint64_t kPrivBasisSelectDomain = 0x70627365ull;  // "pbse"
inline constexpr uint64_t kPrivBasisSupportDomain = 0x70627375ull;  // "pbsu"
inline constexpr uint64_t kContinualNodeDomain = 0x636e6e64ull;     // "cnnd"
inline constexpr uint64_t kHeavyHitterSelectDomain = 0x68687365ull;  // "hhse"
inline constexpr uint64_t kHeavyHitterSupportDomain = 0x68687375ull; // "hhsu"

/// A uniform draw in (0, 1]: the open-at-zero orientation keeps log(u)
/// finite, so the inverse-CDF samplers below never produce infinities.
inline double UniformOpenZero(CounterRng* rng) {
  return 1.0 - rng->UniformReal();  // UniformReal is [0, 1)
}

/// Laplace(0, scale) by inverse CDF: scale = b gives density exp(-|x|/b)/2b,
/// variance 2b².
inline double SampleLaplace(CounterRng* rng, double scale) {
  const double u = rng->UniformReal() - 0.5;  // [-0.5, 0.5)
  // 1 - 2|u| lies in (0, 1] — except at u = -0.5 exactly, where the log
  // would blow up; nudge onto the open interval.
  const double v = std::max(1.0 - 2.0 * std::abs(u), 0x1.0p-53);
  return -std::copysign(scale * std::log(v), u);
}

/// Gumbel(0, scale) by inverse CDF. Adding Gumbel(2Δk/ε) noise to utility
/// scores and taking the top k is the one-shot form of the peeling
/// exponential mechanism (the "Gumbel trick").
inline double SampleGumbel(CounterRng* rng, double scale) {
  return -scale * std::log(-std::log(UniformOpenZero(rng)));
}

}  // namespace butterfly

#endif  // BUTTERFLY_POLICY_DP_NOISE_H_
