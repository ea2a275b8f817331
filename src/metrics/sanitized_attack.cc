#include "metrics/sanitized_attack.h"

#include "common/bits.h"

namespace butterfly {

IntervalMap IntervalKnowledgeFromRelease(const SanitizedOutput& release,
                                         const NoiseModel& noise) {
  IntervalMap knowledge;
  knowledge[Itemset{}] = Interval::Exact(release.window_size());
  for (const SanitizedItemset& item : release.items()) {
    DiscreteUniform region = noise.Centered(item.bias);
    // T̃ = T + r with r ∈ [lo, hi]  =>  T ∈ [T̃ − hi, T̃ − lo].
    knowledge[item.itemset] =
        Interval(item.sanitized_support - region.hi(),
                 item.sanitized_support - region.lo())
            .ClampNonNegative();
  }
  return knowledge;
}

std::optional<Interval> DerivePatternInterval(const IntervalMap& knowledge,
                                              const Pattern& pattern) {
  const Itemset& base = pattern.positive();
  const Itemset& negated = pattern.negated();
  if (negated.size() >= 31) return std::nullopt;
  Interval total = Interval::Exact(0);
  for (uint32_t mask = 0; mask < (1u << negated.size()); ++mask) {
    std::vector<Item> items(base.begin(), base.end());
    for (size_t b = 0; b < negated.size(); ++b) {
      if (mask & (1u << b)) items.push_back(negated[b]);
    }
    auto it = knowledge.find(Itemset(std::move(items)));
    if (it == knowledge.end()) return std::nullopt;
    if (EvenParity(mask)) {
      total = total.Plus(it->second);
    } else {
      total = total.MinusInterval(it->second);
    }
  }
  // A support is non-negative whatever the intervals say.
  return total.ClampNonNegative();
}

SanitizedAttackReport AttackSanitizedRelease(
    const SanitizedOutput& release, const NoiseModel& noise,
    const std::vector<InferredPattern>& ground_truth_breaches) {
  IntervalMap knowledge = IntervalKnowledgeFromRelease(release, noise);
  TightenIntervals(&knowledge);

  SanitizedAttackReport report;
  double width_total = 0;
  for (const InferredPattern& breach : ground_truth_breaches) {
    std::optional<Interval> interval =
        DerivePatternInterval(knowledge, breach.pattern);
    if (!interval) continue;
    ++report.patterns_examined;
    width_total += static_cast<double>(interval->Width());
    if (interval->Tight() && interval->lo == breach.inferred_support) {
      ++report.residual_breaches;
    }
    if (interval->Contains(0)) ++report.zero_indistinguishable;
  }
  if (report.patterns_examined > 0) {
    report.avg_interval_width =
        width_total / static_cast<double>(report.patterns_examined);
  }
  return report;
}

}  // namespace butterfly
