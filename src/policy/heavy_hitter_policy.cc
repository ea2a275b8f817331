#include "policy/heavy_hitter_policy.h"

#include <algorithm>
#include <cmath>

#include "persist/serializer.h"
#include "policy/dp_noise.h"

namespace butterfly {

namespace {

constexpr uint32_t kSectionTag = persist::SectionTag('H', 'V', 'H', 'T');

}  // namespace

HeavyHitterReleasePolicy::HeavyHitterReleasePolicy(
    const ButterflyConfig& config)
    : DpPolicyBase(config, kSectionTag) {}

void HeavyHitterReleasePolicy::ReleaseItems(
    const std::vector<FrequentItemset>& items, const WindowContext& ctx,
    SanitizedOutput* out) {
  if (items.empty()) return;
  const double k = static_cast<double>(policy_top_k());
  const double select_scale = 4.0 * k / policy_epsilon();
  const double support_scale = 2.0 * k / policy_epsilon();

  // Noisy scores, keyed per itemset so input order is irrelevant.
  struct Scored {
    const FrequentItemset* entry;
    double noisy;
  };
  std::vector<Scored> scored;
  scored.reserve(items.size());
  for (const FrequentItemset& entry : items) {
    CounterRng rng = EpochRng(kHeavyHitterSelectDomain, entry.itemset.Hash());
    scored.push_back({&entry, static_cast<double>(entry.support) +
                                  SampleGumbel(&rng, select_scale)});
  }
  const size_t winners = std::min(policy_top_k(), scored.size());
  std::nth_element(scored.begin(), scored.begin() + (winners - 1),
                   scored.end(), [](const Scored& a, const Scored& b) {
                     if (a.noisy != b.noisy) return a.noisy > b.noisy;
                     return a.entry->itemset < b.entry->itemset;
                   });

  const double variance = 2.0 * support_scale * support_scale;
  for (size_t i = 0; i < winners; ++i) {
    const FrequentItemset& entry = *scored[i].entry;
    CounterRng rng = EpochRng(kHeavyHitterSupportDomain, entry.itemset.Hash());
    double noisy = static_cast<double>(entry.support) +
                   SampleLaplace(&rng, support_scale);
    Support sanitized = static_cast<Support>(std::llround(noisy));
    sanitized = std::clamp<Support>(sanitized, 0, ctx.window_size);
    out->Add({entry.itemset, sanitized, /*bias=*/0.0, variance});
  }
}

}  // namespace butterfly
