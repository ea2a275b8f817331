#include "policy/privbasis_policy.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "persist/serializer.h"
#include "policy/dp_noise.h"

namespace butterfly {

namespace {

constexpr uint32_t kSectionTag = persist::SectionTag('P', 'V', 'B', 'S');

}  // namespace

PrivBasisReleasePolicy::PrivBasisReleasePolicy(const ButterflyConfig& config)
    : DpPolicyBase(config, kSectionTag) {}

void PrivBasisReleasePolicy::ReleaseItems(const std::vector<DpItem>& items,
                                          const WindowContext& ctx,
                                          SanitizedOutput* out) {
  if (items.empty()) return;
  const double epsilon_half = policy_epsilon() / 2;
  const double select_scale = 2.0 / epsilon_half;
  const double support_scale = 2.0 / epsilon_half;

  // Item scores: the max support of any frequent itemset containing the
  // item. A max over the input is insensitive to input order, as
  // ReleaseItems' contract requires.
  std::unordered_map<Item, Support> score;
  for (const DpItem& entry : items) {
    for (Item item : entry.itemset->items()) {
      auto [it, inserted] = score.emplace(item, entry.support);
      if (!inserted && entry.support > it->second) it->second = entry.support;
    }
  }

  // Noisy selection: per-item Laplace keyed on (epoch, item id), top
  // policy_top_k by (noisy score desc, item asc).
  struct Scored {
    Item item;
    double noisy;
  };
  std::vector<Scored> scored;
  scored.reserve(score.size());
  // bfly-lint: allow(unordered-iteration) the full sort below is a total
  // order (noisy desc, item asc), so hash order never reaches the output
  for (const auto& [item, support] : score) {
    CounterRng rng = EpochRng(kPrivBasisSelectDomain, item);
    scored.push_back(
        {item, static_cast<double>(support) + SampleLaplace(&rng, select_scale)});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.noisy != b.noisy) return a.noisy > b.noisy;
    return a.item < b.item;
  });
  const size_t basis_size = std::min(policy_top_k(), scored.size());
  std::unordered_set<Item> basis;
  basis.reserve(basis_size);
  for (size_t i = 0; i < basis_size; ++i) basis.insert(scored[i].item);

  // Publish every itemset the basis covers, with perturbed support.
  const double variance = 2.0 * support_scale * support_scale;
  for (const DpItem& entry : items) {
    bool covered = true;
    for (Item item : entry.itemset->items()) {
      if (basis.count(item) == 0) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    CounterRng rng = EpochRng(kPrivBasisSupportDomain, entry.itemset->Hash());
    double noisy = static_cast<double>(entry.support) +
                   SampleLaplace(&rng, support_scale);
    Support sanitized = static_cast<Support>(std::llround(noisy));
    sanitized = std::clamp<Support>(sanitized, 0, ctx.window_size);
    out->Add({*entry.itemset, sanitized, /*bias=*/0.0, variance});
  }
}

}  // namespace butterfly
