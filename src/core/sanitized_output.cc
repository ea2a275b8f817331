#include "core/sanitized_output.h"

#include <algorithm>
#include <sstream>

namespace butterfly {

void SanitizedOutput::Add(SanitizedItemset item) {
  items_.push_back(std::move(item));
  sealed_ = false;
}

void SanitizedOutput::Seal() {
  const auto by_itemset = [](const SanitizedItemset& a,
                             const SanitizedItemset& b) {
    return a.itemset < b.itemset;
  };
  // A release built from a sealed mining output is in order already.
  if (!std::is_sorted(items_.begin(), items_.end(), by_itemset)) {
    std::sort(items_.begin(), items_.end(), by_itemset);
  }
  sealed_ = true;
}

std::optional<Support> SanitizedOutput::SanitizedSupportOf(
    const Itemset& itemset) const {
  const SanitizedItemset* item = Find(itemset);
  if (!item) return std::nullopt;
  return item->sanitized_support;
}

const SanitizedItemset* SanitizedOutput::Find(const Itemset& itemset) const {
  if (sealed_) {
    auto it = std::lower_bound(items_.begin(), items_.end(), itemset,
                               [](const SanitizedItemset& a, const Itemset& b) {
                                 return a.itemset < b;
                               });
    if (it == items_.end() || !(it->itemset == itemset)) return nullptr;
    return &*it;
  }
  for (const SanitizedItemset& item : items_) {
    if (item.itemset == itemset) return &item;
  }
  return nullptr;
}

RealSupportProvider SanitizedOutput::AsEstimatorProvider() const {
  return [this](const Itemset& itemset) -> std::optional<double> {
    if (itemset.empty()) return static_cast<double>(window_size_);
    const SanitizedItemset* item = Find(itemset);
    if (!item) return std::nullopt;
    return static_cast<double>(item->sanitized_support) - item->bias;
  };
}

std::string SanitizedOutput::ToString() const {
  std::ostringstream out;
  out << "SanitizedOutput(C=" << min_support_ << ", H=" << window_size_
      << ", " << items_.size() << " itemsets)\n";
  for (const SanitizedItemset& item : items_) {
    out << "  " << item.itemset.ToString() << " : " << item.sanitized_support
        << '\n';
  }
  return out.str();
}

}  // namespace butterfly
