#include "core/noise.h"

#include <cassert>
#include <cmath>

#include "common/check.h"

namespace butterfly {

NoiseModel::NoiseModel(double delta, Support vulnerable_support) {
  assert(delta > 0);
  assert(vulnerable_support > 0);
  double k = static_cast<double>(vulnerable_support);
  // Smallest integer region length whose variance meets σ² ≥ δK²/2.
  double exact = std::sqrt(1.0 + 6.0 * delta * k * k) - 1.0;
  alpha_ = checked_int64(std::ceil(exact - 1e-9));
  if (alpha_ < 1) alpha_ = 1;
  double n = static_cast<double>(alpha_) + 1.0;
  variance_ = (n * n - 1.0) / 12.0;
}

DiscreteUniform NoiseModel::Centered(double bias) const {
  int64_t lo =
      checked_int64(std::round(bias - static_cast<double>(alpha_) / 2.0));
  return DiscreteUniform(lo, lo + alpha_);
}

}  // namespace butterfly
