#include "policy/continual_policy.h"

#include <algorithm>
#include <cmath>

#include "persist/serializer.h"
#include "policy/dp_noise.h"

namespace butterfly {

namespace {

constexpr uint32_t kSectionTag = persist::SectionTag('C', 'T', 'N', 'L');

/// Levels in the dyadic tree covering a window of size \p window: every
/// record lies under one node per level, so this is also the per-record
/// noise multiplicity the budget divides over.
int TreeLevels(Support window) {
  int levels = 1;
  while ((Support{1} << levels) <= window) ++levels;
  return levels;  // = floor(log2(window)) + 1 for window >= 1
}

}  // namespace

std::vector<uint64_t> DyadicCover(uint64_t begin, uint64_t end) {
  std::vector<uint64_t> nodes;
  uint64_t pos = begin;
  while (pos < end) {
    // Largest aligned block starting at pos that fits in [pos, end).
    int level = 0;
    while (level < 55 && (pos & ((uint64_t{1} << (level + 1)) - 1)) == 0 &&
           pos + (uint64_t{1} << (level + 1)) <= end) {
      ++level;
    }
    nodes.push_back((static_cast<uint64_t>(level) << 56) |
                    (pos >> static_cast<unsigned>(level)));
    pos += uint64_t{1} << level;
  }
  return nodes;
}

ContinualReleasePolicy::ContinualReleasePolicy(const ButterflyConfig& config)
    : DpPolicyBase(config, kSectionTag) {}

void ContinualReleasePolicy::ReleaseItems(
    const std::vector<FrequentItemset>& items, const WindowContext& ctx,
    SanitizedOutput* out) {
  if (items.empty() || ctx.window_size <= 0) return;
  const uint64_t window = static_cast<uint64_t>(ctx.window_size);
  const uint64_t end = ctx.stream_position;
  const uint64_t begin = end >= window ? end - window : 0;
  const std::vector<uint64_t> cover = DyadicCover(begin, end);
  const int levels = TreeLevels(ctx.window_size);
  const double scale = static_cast<double>(levels) / policy_epsilon();
  // Per-node Laplace variance 2·scale², summed over the cover.
  const double variance =
      2.0 * scale * scale * static_cast<double>(cover.size());
  const uint64_t node_seed = seed() ^ SplitMix64Mix(kContinualNodeDomain);

  for (const FrequentItemset& entry : items) {
    const uint64_t hash = entry.itemset.Hash();
    double noise = 0;
    for (uint64_t node : cover) {
      // Keyed on (node, itemset) only — the same node contributes the same
      // draw to every window that covers it, by design.
      CounterRng rng(node_seed, node, hash);
      noise += SampleLaplace(&rng, scale);
    }
    double noisy = static_cast<double>(entry.support) + noise;
    Support sanitized = static_cast<Support>(std::llround(noisy));
    sanitized = std::clamp<Support>(sanitized, 0, ctx.window_size);
    out->Add({entry.itemset, sanitized, /*bias=*/0.0, variance});
  }
}

}  // namespace butterfly
