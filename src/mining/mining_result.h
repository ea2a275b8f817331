/// \file mining_result.h
/// \brief The output of a frequent-pattern mining pass over one window: the
/// frequent itemsets and their supports. This is exactly the object Butterfly
/// sanitizes before release, and the object the adversary attacks.

#ifndef BUTTERFLY_MINING_MINING_RESULT_H_
#define BUTTERFLY_MINING_MINING_RESULT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/itemset.h"
#include "common/types.h"

namespace butterfly {

/// One mined itemset with its (true) support.
struct FrequentItemset {
  Itemset itemset;
  Support support = 0;

  bool operator==(const FrequentItemset& other) const = default;
};

/// A set of mined itemsets. Seal() sorts them lexicographically, which fixes
/// the iteration order and lets lookups binary-search; before Seal() lookups
/// scan.
class MiningOutput {
 public:
  MiningOutput() = default;

  /// \param min_support the threshold C the mining ran with.
  explicit MiningOutput(Support min_support) : min_support_(min_support) {}

  /// Appends an itemset (must not already be present).
  void Add(Itemset itemset, Support support);

  /// Sorts itemsets lexicographically (only checks the order when they were
  /// added in it); call once after the last Add.
  void Seal();

  size_t size() const { return itemsets_.size(); }
  bool empty() const { return itemsets_.empty(); }
  Support min_support() const { return min_support_; }

  const std::vector<FrequentItemset>& itemsets() const { return itemsets_; }

  /// Support of \p itemset if it was mined, nullopt otherwise.
  std::optional<Support> SupportOf(const Itemset& itemset) const;

  bool Contains(const Itemset& itemset) const {
    return Find(itemset) != nullptr;
  }

  /// True iff both outputs contain exactly the same (itemset, support) pairs.
  bool SameAs(const MiningOutput& other) const;

  /// Multi-line rendering for debugging and the examples.
  std::string ToString() const;

 private:
  const FrequentItemset* Find(const Itemset& itemset) const;

  Support min_support_ = 0;
  bool sealed_ = false;  ///< Seal() sorted itemsets_, enabling binary search
  std::vector<FrequentItemset> itemsets_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_MINING_MINING_RESULT_H_
