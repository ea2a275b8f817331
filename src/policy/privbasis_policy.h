/// \file privbasis_policy.h
/// \brief PrivBasis-style private frequent-itemset release.
///
/// Two-stage mechanism, splitting the per-window budget ε evenly:
///   1. Basis selection (ε/2): each distinct item is scored by the maximum
///      support of any frequent itemset containing it (order-independent),
///      Laplace noise is added to the scores, and the top policy_top_k items
///      become the basis.
///   2. Support publication (ε/2): every frequent itemset whose items all
///      lie in the basis is released with Laplace-perturbed support.
///
/// The basis bounds what the adversary can see: itemsets touching any
/// off-basis item are suppressed entirely, which is where this backend's
/// breach protection (and its recall loss) comes from. Budget composes
/// additively across windows (naive composition).

#ifndef BUTTERFLY_POLICY_PRIVBASIS_POLICY_H_
#define BUTTERFLY_POLICY_PRIVBASIS_POLICY_H_

#include <vector>

#include "policy/dp_policy.h"

namespace butterfly {

class PrivBasisReleasePolicy final : public DpPolicyBase {
 public:
  explicit PrivBasisReleasePolicy(const ButterflyConfig& config);

  ReleasePolicyKind kind() const override {
    return ReleasePolicyKind::kPrivBasis;
  }

 protected:
  void ReleaseItems(const std::vector<FrequentItemset>& items,
                    const WindowContext& ctx, SanitizedOutput* out) override;
};

}  // namespace butterfly

#endif  // BUTTERFLY_POLICY_PRIVBASIS_POLICY_H_
