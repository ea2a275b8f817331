/// \file dp_policy.h
/// \brief Shared scaffolding for the differentially-private release
/// backends.
///
/// The three DP policies (PrivBasis-style, continual-release, heavy-hitter)
/// differ only in their mechanism, which reads the mined itemsets in place;
/// everything around it is common and lives here: epoch and
/// cumulative-budget accounting, keyed noise-stream construction, the seal,
/// and the tagged checkpoint section.
///
/// These backends are testbed mechanisms for the utility-vs-breach frontier
/// bench, not audited DP implementations: the accounting models are the
/// standard textbook ones (naive additive composition for the one-shot
/// mechanisms, per-element budget for the continual estimator) applied to
/// the frequent-itemset release as-is. DESIGN.md §15 spells out each
/// backend's model and its simplifications.

#ifndef BUTTERFLY_POLICY_DP_POLICY_H_
#define BUTTERFLY_POLICY_DP_POLICY_H_

#include <vector>

#include "common/rng.h"
#include "policy/release_policy.h"

namespace butterfly {

/// Base class owning everything but the mechanism. Subclasses implement
/// ReleaseItems (and optionally override the budget-accounting hooks).
class DpPolicyBase : public ReleasePolicy {
 public:
  SanitizedOutput Release(const MiningOutput& frequent,
                          const WindowContext& ctx,
                          ReleaseStats* stats) override;

  uint64_t epoch() const override { return epoch_; }

  /// Writes Tag(section_tag) + epoch + cumulative epsilon. Mechanisms are
  /// stateless beyond their keyed noise streams, so this is the complete
  /// cross-release state of every DP backend.
  void Checkpoint(persist::CheckpointWriter* writer) const override;
  Status Restore(persist::CheckpointReader* reader) override;

  /// The per-element budget consumed so far (what ReleaseStats reports as
  /// epsilon_cumulative after each release).
  double cumulative_epsilon() const { return cumulative_epsilon_; }

 protected:
  DpPolicyBase(const ButterflyConfig& config, uint32_t section_tag);

  /// The mechanism: reads \p items, the mined itemsets with their true
  /// supports (order-insignificant — all randomness must be keyed per
  /// identity, never positional), Add()s the release into \p out. The base
  /// seals, accounts, and advances the epoch.
  virtual void ReleaseItems(const std::vector<FrequentItemset>& items,
                            const WindowContext& ctx,
                            SanitizedOutput* out) = 0;

  /// Budget consumed by one release; defaults to the full knob.
  virtual double EpsilonSpent() const { return epsilon_; }

  /// Folds one release's cost into the cumulative per-element bound.
  /// Default: naive additive composition. The continual backend overrides
  /// this to stay constant (its node noise is reused across windows).
  virtual double Accumulate(double cumulative, double spent) const {
    return cumulative + spent;
  }

  /// A noise stream keyed (seed ⊕ mix(domain), current epoch, identity):
  /// fresh per release, stable within one. For epoch-independent streams
  /// (the continual node noise) construct CounterRng directly from seed().
  CounterRng EpochRng(uint64_t domain, uint64_t identity) const {
    return CounterRng(seed_ ^ SplitMix64Mix(domain), epoch_, identity);
  }

  uint64_t seed() const { return seed_; }
  double policy_epsilon() const { return epsilon_; }
  size_t policy_top_k() const { return top_k_; }
  Support min_support() const { return min_support_; }

 private:
  uint64_t seed_;
  double epsilon_;
  size_t top_k_;
  Support min_support_;
  uint32_t section_tag_;

  uint64_t epoch_ = 0;
  double cumulative_epsilon_ = 0;
};

}  // namespace butterfly

#endif  // BUTTERFLY_POLICY_DP_POLICY_H_
