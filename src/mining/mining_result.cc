#include "mining/mining_result.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace butterfly {

void MiningOutput::Add(Itemset itemset, Support support) {
  assert(index_.count(itemset) == 0);
  index_.emplace(itemset, support);
  itemsets_.push_back(FrequentItemset{std::move(itemset), support});
}

void MiningOutput::Seal() {
  std::sort(itemsets_.begin(), itemsets_.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.itemset < b.itemset;
            });
}

std::optional<Support> MiningOutput::SupportOf(const Itemset& itemset) const {
  auto it = index_.find(itemset);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool MiningOutput::SameAs(const MiningOutput& other) const {
  if (index_.size() != other.index_.size()) return false;
  // bfly-lint: allow(unordered-iteration) order-independent membership
  // comparison folding into a single boolean
  for (const auto& [itemset, support] : index_) {
    auto it = other.index_.find(itemset);
    if (it == other.index_.end() || it->second != support) return false;
  }
  return true;
}

std::string MiningOutput::ToString() const {
  std::ostringstream out;
  out << "MiningOutput(C=" << min_support_ << ", " << itemsets_.size()
      << " itemsets)\n";
  for (const FrequentItemset& f : itemsets_) {
    out << "  " << f.itemset.ToString() << " : " << f.support << '\n';
  }
  return out.str();
}

}  // namespace butterfly
