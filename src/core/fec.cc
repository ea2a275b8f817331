#include "core/fec.h"

#include <algorithm>
#include <cmath>

namespace butterfly {

std::vector<Fec> PartitionIntoFecs(const MiningOutput& output) {
  std::vector<Fec> fecs;
  if (output.empty()) return fecs;
  const auto [lowest, highest] = std::ranges::minmax_element(
      output.itemsets(), {}, &FrequentItemset::support);
  const Support base = lowest->support;
  std::vector<size_t> counts(static_cast<size_t>(highest->support - base) + 1);
  for (const FrequentItemset& f : output.itemsets()) {
    ++counts[static_cast<size_t>(f.support - base)];
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) {
      fecs.push_back(Fec{base + static_cast<Support>(i), counts[i]});
    }
  }
  return fecs;
}

double MaxAdjustableBias(Support support, double epsilon,
                         double noise_variance) {
  double t = static_cast<double>(support);
  double budget = epsilon * t * t - noise_variance;
  return budget > 0 ? std::sqrt(budget) : 0.0;
}

}  // namespace butterfly
