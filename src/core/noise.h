/// \file noise.h
/// \brief The Butterfly noise model: discrete uniform perturbation whose
/// variance is set by the privacy requirement δ and whose center (bias) is
/// the utility-tuning knob.
///
/// For privacy requirement δ and vulnerable support K, the scheme needs
/// σ² ≥ δK²/2 (Inequation 2 of the paper). A discrete uniform distribution
/// over an integer interval of length α has σ² = ((α+1)² − 1)/12, so the
/// paper sets α = √(1 + 6δK²) − 1; we take the ceiling so the realized
/// variance never undershoots the requirement.

#ifndef BUTTERFLY_CORE_NOISE_H_
#define BUTTERFLY_CORE_NOISE_H_

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"

namespace butterfly {

/// The per-release noise generator shared by all Butterfly schemes.
class NoiseModel {
 public:
  /// \param delta the privacy requirement (P2 lower bound), > 0.
  /// \param vulnerable_support the threshold K, > 0.
  NoiseModel(double delta, Support vulnerable_support);

  /// The uncertainty-region length α (an integer; the noise support holds
  /// α + 1 values).
  int64_t alpha() const { return alpha_; }

  /// The realized noise variance ((α+1)² − 1)/12 ≥ δK²/2.
  double variance() const { return variance_; }

  /// The noise distribution centered (as closely as integer endpoints allow)
  /// at \p bias: integers in [round(bias − α/2), round(bias − α/2) + α].
  DiscreteUniform Centered(double bias) const;

  /// Draws one noise value with the given bias, from any source exposing
  /// UniformInt (Rng for sequential use, CounterRng for the keyed per-itemset
  /// streams of the release path).
  template <typename RngT>
  int64_t Sample(double bias, RngT* rng) const {
    return Centered(bias).Sample(rng);
  }

 private:
  int64_t alpha_;
  double variance_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_NOISE_H_
