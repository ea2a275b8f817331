/// \file continual_policy.h
/// \brief Continual-release frequency estimation via the binary-tree
/// (dyadic interval) mechanism.
///
/// The stream position axis is covered by a dyadic tree: node (level l,
/// index i) spans records [i·2^l, (i+1)·2^l). A window [pos−H, pos)
/// decomposes into at most 2·log₂(H) nodes; each released support is the
/// true support plus the sum of those nodes' noise terms, where a node's
/// noise is a fixed Laplace(L/ε) draw keyed on (node, itemset) — NOT on the
/// release epoch. Reusing node noise across overlapping windows is the whole
/// point of the mechanism: consecutive windows share most of their dyadic
/// cover, so their errors are correlated instead of compounding, and the
/// per-element budget stays ε no matter how many windows are published
/// (each stream record lives under L = ⌊log₂H⌋+1 nodes, each noised once).
///
/// Simplification (documented in DESIGN.md §15): noise is keyed per dyadic
/// node but the node value noised is the itemset's support over the window,
/// not a per-node partial count — a testbed stand-in that preserves the
/// mechanism's error structure without per-node count maintenance.

#ifndef BUTTERFLY_POLICY_CONTINUAL_POLICY_H_
#define BUTTERFLY_POLICY_CONTINUAL_POLICY_H_

#include <vector>

#include "policy/dp_policy.h"

namespace butterfly {

class ContinualReleasePolicy final : public DpPolicyBase {
 public:
  explicit ContinualReleasePolicy(const ButterflyConfig& config);

  ReleasePolicyKind kind() const override {
    return ReleasePolicyKind::kContinual;
  }

 protected:
  void ReleaseItems(const std::vector<FrequentItemset>& items,
                    const WindowContext& ctx, SanitizedOutput* out) override;

  /// The continual estimator's cumulative per-element cost is a constant ε:
  /// every stream record is covered by L noised nodes regardless of how many
  /// windows get released.
  double Accumulate(double /*cumulative*/, double spent) const override {
    return spent;
  }
};

/// The dyadic cover of [begin, end): node keys (level << 56 | index),
/// greedily largest-aligned-first. Exposed for the conformance tests.
std::vector<uint64_t> DyadicCover(uint64_t begin, uint64_t end);

}  // namespace butterfly

#endif  // BUTTERFLY_POLICY_CONTINUAL_POLICY_H_
