#include "core/config.h"

#include <sstream>

#include "core/noise.h"

namespace butterfly {

std::string SchemeName(ButterflyScheme scheme) {
  switch (scheme) {
    case ButterflyScheme::kBasic:
      return "basic";
    case ButterflyScheme::kOrderPreserving:
      return "order-preserving";
    case ButterflyScheme::kRatioPreserving:
      return "ratio-preserving";
    case ButterflyScheme::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

std::string ReleasePolicyName(ReleasePolicyKind kind) {
  switch (kind) {
    case ReleasePolicyKind::kButterfly:
      return "butterfly";
    case ReleasePolicyKind::kPrivBasis:
      return "privbasis";
    case ReleasePolicyKind::kContinual:
      return "continual";
    case ReleasePolicyKind::kHeavyHitter:
      return "heavyhitter";
  }
  return "unknown";
}

std::optional<ReleasePolicyKind> ParseReleasePolicyKind(std::string_view name) {
  if (name == "butterfly") return ReleasePolicyKind::kButterfly;
  if (name == "privbasis") return ReleasePolicyKind::kPrivBasis;
  if (name == "continual") return ReleasePolicyKind::kContinual;
  if (name == "heavyhitter") return ReleasePolicyKind::kHeavyHitter;
  return std::nullopt;
}

Status ButterflyConfig::Validate() const {
  if (epsilon <= 0) return Status::InvalidArgument("epsilon must be positive");
  if (delta <= 0) return Status::InvalidArgument("delta must be positive");
  if (min_support <= 0) {
    return Status::InvalidArgument("min_support must be positive");
  }
  if (vulnerable_support <= 0) {
    return Status::InvalidArgument("vulnerable_support must be positive");
  }
  if (vulnerable_support >= min_support) {
    return Status::InvalidArgument(
        "vulnerable_support K must be below min_support C");
  }
  if (lambda < 0 || lambda > 1) {
    return Status::InvalidArgument("lambda must lie in [0, 1]");
  }
  if (order_opt.gamma > 8) {
    return Status::InvalidArgument("gamma above 8 is not supported");
  }
  if (order_opt.max_states > kMaxOrderStates) {
    return Status::InvalidArgument("max_states must be at most " +
                                   std::to_string(kMaxOrderStates));
  }
  if (threads < 0 || threads > kMaxThreads) {
    return Status::InvalidArgument("threads must lie in [0, " +
                                   std::to_string(kMaxThreads) +
                                   "] (0 = hardware concurrency)");
  }
  if (policy != ReleasePolicyKind::kButterfly) {
    if (!(policy_epsilon > 0) || policy_epsilon > 1e6) {
      return Status::InvalidArgument(
          "policy_epsilon must lie in (0, 1e6] for the DP release policies");
    }
    if (policy_top_k == 0 || policy_top_k > 1000000) {
      return Status::InvalidArgument(
          "policy_top_k must lie in [1, 1e6]");
    }
  }
  if (ppr() + 1e-12 < MinPpr()) {
    std::ostringstream msg;
    msg << "epsilon/delta = " << ppr() << " below the minimum ppr K^2/(2C^2) = "
        << MinPpr() << "; no sigma^2 satisfies both requirements";
    return Status::InvalidArgument(msg.str());
  }
  // The noise region length is an integer, so the realized variance can
  // overshoot δK²/2 slightly; the precision budget must absorb the realized
  // value, not just the continuous bound (caught by the property sweep at
  // exactly the minimum ppr).
  NoiseModel noise(delta, vulnerable_support);
  double c = static_cast<double>(min_support);
  if (noise.variance() > epsilon * c * c + 1e-9) {
    std::ostringstream msg;
    msg << "discretized noise variance " << noise.variance()
        << " (region length " << noise.alpha()
        << ") exceeds the precision budget epsilon*C^2 = " << epsilon * c * c
        << "; raise epsilon slightly or lower delta";
    return Status::InvalidArgument(msg.str());
  }
  return Status::OK();
}

}  // namespace butterfly
