/// \file rng.h
/// \brief Deterministic random number generation.
///
/// Every stochastic component (data generators, perturbation noise) draws from
/// an explicitly seeded Rng so that experiments and tests are reproducible.

#ifndef BUTTERFLY_COMMON_RNG_H_
#define BUTTERFLY_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>

#include "common/types.h"

namespace butterfly {

/// A seeded pseudo-random source wrapping std::mt19937_64.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eedull) : engine_(seed) {}

  /// Uniform integer in the closed range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1).
  double UniformReal() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform real in [lo, hi).
  double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Poisson-distributed count with the given mean.
  int64_t Poisson(double mean) {
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  /// Geometric-like exponential draw, mean `mean`, truncated to >= 1.
  int64_t ExponentialAtLeastOne(double mean) {
    double x = std::exponential_distribution<double>(1.0 / mean)(engine_);
    int64_t n = static_cast<int64_t>(x) + 1;
    return n;
  }

  /// Fisher-Yates shuffle.
  template <typename Container>
  void Shuffle(Container* c) {
    std::shuffle(c->begin(), c->end(), engine_);
  }

  /// Direct access for std distributions not wrapped above.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// SplitMix64's finalizer: a high-quality 64-bit mixing function. Used both
/// as the CounterRng output function and to fold key material together.
inline uint64_t SplitMix64Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Derives the RNG seed of one tenant's engine from the fleet-level config
/// seed. This is THE one place multi-tenant seed derivation lives: every
/// tenant engine a fleet builds (and every solo engine a test compares it
/// against) must key its noise streams on DeriveTenantSeed(config_seed, id),
/// never on the shared config seed itself — two tenants running the same
/// configuration would otherwise draw identical noise, and publishing two
/// releases perturbed by the same draws hands the adversary a free
/// differencing attack across tenants.
///
/// The mix is splitmix-style: both words pass through the finalizer with
/// distinct offsets, so (s, t) and (t, s) key different streams and
/// neighboring tenant ids land in unrelated points of the seed space. The
/// exact values are pinned by rng_test (TenantSeedDerivationIsPinned) —
/// changing this function invalidates every fleet checkpoint's noise
/// continuity, so it must never drift silently.
inline uint64_t DeriveTenantSeed(uint64_t config_seed, uint64_t tenant_id) {
  uint64_t mixed = SplitMix64Mix(config_seed + 0x9e3779b97f4a7c15ull);
  mixed = SplitMix64Mix(mixed ^ (tenant_id + 0xd1b54a32d192ed03ull));
  return mixed;
}

/// A counter-based (splittable) random stream keyed by up to three 64-bit
/// words. Unlike Rng, whose outputs depend on every draw made before them,
/// a CounterRng's i-th output is a pure function of (key, i). The sanitizer
/// keys one stream per released itemset — (engine seed, release epoch,
/// itemset identity) — so the noise an itemset receives is independent of
/// FEC iteration order, thread count, and scheduling: a fleet tenant and a
/// restored engine draw exactly the noise a solo serial run draws.
class CounterRng {
 public:
  explicit CounterRng(uint64_t k0, uint64_t k1 = 0, uint64_t k2 = 0) {
    // Fold the key words through the mixer with distinct offsets so
    // (a, b, 0) and (a, 0, b) key different streams.
    state_ = SplitMix64Mix(k0 + 0x9e3779b97f4a7c15ull);
    state_ = SplitMix64Mix(state_ ^ (k1 + 0xbf58476d1ce4e5b9ull));
    state_ = SplitMix64Mix(state_ ^ (k2 + 0x94d049bb133111ebull));
  }

  /// The next 64 raw bits of the stream (the splitmix64 generator).
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return SplitMix64Mix(state_);
  }

  /// Uniform integer in the closed range [lo, hi], unbiased (rejection
  /// sampling on the raw stream).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
    uint64_t reject_above = ~uint64_t{0} - ~uint64_t{0} % range;
    uint64_t draw;
    do {
      draw = Next();
    } while (draw >= reject_above);
    return lo + static_cast<int64_t>(draw % range);
  }

  /// Uniform real in [0, 1) with 53 random bits.
  double UniformReal() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

/// The discrete uniform noise distribution used by Butterfly: integers in
/// [lo, hi], each equally likely. Exposes the moments the scheme's analysis
/// relies on. For region length alpha = hi - lo, the variance is
/// ((alpha + 1)^2 - 1) / 12.
class DiscreteUniform {
 public:
  DiscreteUniform(int64_t lo, int64_t hi) : lo_(lo), hi_(hi) {}

  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }

  /// Region length alpha = hi - lo (the paper's notation).
  int64_t alpha() const { return hi_ - lo_; }

  double Mean() const {
    return 0.5 * (static_cast<double>(lo_) + static_cast<double>(hi_));
  }

  double Variance() const {
    double n = static_cast<double>(alpha()) + 1.0;
    return (n * n - 1.0) / 12.0;
  }

  /// Draws from any source exposing UniformInt(lo, hi) — Rng or CounterRng.
  template <typename RngT>
  int64_t Sample(RngT* rng) const {
    return rng->UniformInt(lo_, hi_);
  }

 private:
  int64_t lo_;
  int64_t hi_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_RNG_H_
