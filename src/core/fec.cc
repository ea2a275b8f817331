#include "core/fec.h"

#include <algorithm>
#include <cmath>

namespace butterfly {

std::vector<Fec> PartitionIntoFecs(const MiningOutput& output) {
  std::vector<Support> supports;
  supports.reserve(output.size());
  for (const FrequentItemset& f : output.itemsets()) {
    supports.push_back(f.support);
  }
  std::sort(supports.begin(), supports.end());
  std::vector<Fec> fecs;
  for (Support support : supports) {
    if (fecs.empty() || fecs.back().support != support) {
      fecs.push_back(Fec{support, 0});
    }
    ++fecs.back().member_count;
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
