/// \file heavy_hitter_policy.h
/// \brief Private top-k heavy-hitter release.
///
/// Two-stage mechanism on the per-window budget ε:
///   1. Selection (ε/2): each frequent itemset's support gets Gumbel noise
///      of scale 2k/(ε/2) = 4k/ε and the k = policy_top_k highest noisy
///      scores win — the one-shot "Gumbel trick" form of peeling the
///      exponential mechanism k times.
///   2. Estimation (ε/2): each winner's support is released with Laplace
///      noise of scale k/(ε/2) = 2k/ε.
///
/// Everything outside the top k is suppressed, making this the most
/// aggressive of the DP backends on recall and the strongest on breach rate
/// (vulnerable low-support patterns rarely survive selection). Budget
/// composes additively across windows.

#ifndef BUTTERFLY_POLICY_HEAVY_HITTER_POLICY_H_
#define BUTTERFLY_POLICY_HEAVY_HITTER_POLICY_H_

#include <vector>

#include "policy/dp_policy.h"

namespace butterfly {

class HeavyHitterReleasePolicy final : public DpPolicyBase {
 public:
  explicit HeavyHitterReleasePolicy(const ButterflyConfig& config);

  ReleasePolicyKind kind() const override {
    return ReleasePolicyKind::kHeavyHitter;
  }

 protected:
  void ReleaseItems(const std::vector<FrequentItemset>& items,
                    const WindowContext& ctx, SanitizedOutput* out) override;
};

}  // namespace butterfly

#endif  // BUTTERFLY_POLICY_HEAVY_HITTER_POLICY_H_
