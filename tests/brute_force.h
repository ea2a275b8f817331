/// \file brute_force.h
/// \brief The exhaustive frequent-itemset oracle the batch miner is checked
/// against: every subset of a small alphabet, counted by direct scan.

#ifndef BUTTERFLY_TESTS_BRUTE_FORCE_H_
#define BUTTERFLY_TESTS_BRUTE_FORCE_H_

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/transaction.h"
#include "mining/mining_result.h"
#include "mining/support.h"

namespace butterfly::testing {

/// All frequent itemsets of \p window at \p min_support, by counting every
/// subset of the window's alphabet (fewer than 16 items).
inline MiningOutput BruteForceFrequent(const std::vector<Transaction>& window,
                                       Support min_support) {
  std::set<Item> alphabet;
  for (const Transaction& t : window) {
    for (Item i : t.items) alphabet.insert(i);
  }
  std::vector<Item> items(alphabet.begin(), alphabet.end());
  MiningOutput output(min_support);
  if (items.size() >= 16) {
    ADD_FAILURE() << "reference miner needs a small alphabet, got "
                  << items.size() << " items";
    return output;
  }
  for (uint32_t mask = 1; mask < (1u << items.size()); ++mask) {
    std::vector<Item> subset;
    for (size_t b = 0; b < items.size(); ++b) {
      if (mask & (1u << b)) subset.push_back(items[b]);
    }
    Itemset candidate = Itemset::FromSorted(std::move(subset));
    Support support = CountSupport(window, candidate);
    if (support >= min_support) output.Add(candidate, support);
  }
  output.Seal();
  return output;
}

}  // namespace butterfly::testing

#endif  // BUTTERFLY_TESTS_BRUTE_FORCE_H_
