#include "mining/mining_result.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace butterfly {

void MiningOutput::Add(Itemset itemset, Support support) {
  itemsets_.push_back(FrequentItemset{std::move(itemset), support});
  sealed_ = false;
}

void MiningOutput::Seal() {
  const auto by_itemset = [](const FrequentItemset& a,
                             const FrequentItemset& b) {
    return a.itemset < b.itemset;
  };
  // The CET walks add in canonical order already; checking is O(n).
  if (!std::is_sorted(itemsets_.begin(), itemsets_.end(), by_itemset)) {
    std::sort(itemsets_.begin(), itemsets_.end(), by_itemset);
  }
  BFLY_DCHECK(std::adjacent_find(itemsets_.begin(), itemsets_.end(),
                                 [](const FrequentItemset& a,
                                    const FrequentItemset& b) {
                                   return a.itemset == b.itemset;
                                 }) == itemsets_.end());
  sealed_ = true;
}

const FrequentItemset* MiningOutput::Find(const Itemset& itemset) const {
  if (sealed_) {
    auto it = std::lower_bound(itemsets_.begin(), itemsets_.end(), itemset,
                               [](const FrequentItemset& a, const Itemset& b) {
                                 return a.itemset < b;
                               });
    if (it == itemsets_.end() || !(it->itemset == itemset)) return nullptr;
    return &*it;
  }
  for (const FrequentItemset& f : itemsets_) {
    if (f.itemset == itemset) return &f;
  }
  return nullptr;
}

std::optional<Support> MiningOutput::SupportOf(const Itemset& itemset) const {
  const FrequentItemset* f = Find(itemset);
  if (!f) return std::nullopt;
  return f->support;
}

bool MiningOutput::SameAs(const MiningOutput& other) const {
  if (itemsets_.size() != other.itemsets_.size()) return false;
  if (sealed_ && other.sealed_) return itemsets_ == other.itemsets_;
  for (const FrequentItemset& f : itemsets_) {
    if (other.SupportOf(f.itemset) != f.support) return false;
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
