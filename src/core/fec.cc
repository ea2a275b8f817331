#include "core/fec.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace butterfly {

std::vector<Fec> PartitionIntoFecs(const MiningOutput& output) {
  std::map<Support, Fec> by_support;
  for (const FrequentItemset& f : output.itemsets()) {
    Fec& fec = by_support[f.support];
    fec.support = f.support;
    // Sealed outputs walk in lexicographic order, so this is a pure
    // push_back; the binary-searched insert keeps unsealed inputs correct.
    std::vector<Itemset>& members = fec.members;
    if (members.empty() || members.back() < f.itemset) {
      members.push_back(f.itemset);
    } else {
      members.insert(
          std::lower_bound(members.begin(), members.end(), f.itemset),
          f.itemset);
    }
  }
  std::vector<Fec> fecs;
  fecs.reserve(by_support.size());
  for (auto& [support, fec] : by_support) {
    fecs.push_back(std::move(fec));
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
