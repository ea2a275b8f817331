/// \file eclat.h
/// \brief Eclat (Zaki, 1997): depth-first frequent-itemset mining over a
/// vertical layout (per-item tid lists intersected along the DFS). The
/// per-window batch miner: the engine underneath the closed-itemset miner
/// and the oracle the stream miners are checked against.

#ifndef BUTTERFLY_MINING_ECLAT_H_
#define BUTTERFLY_MINING_ECLAT_H_

#include <vector>

#include "common/transaction.h"
#include "mining/mining_result.h"

namespace butterfly {

/// Mines all frequent itemsets (non-empty, support >= C) of one window.
class EclatMiner {
 public:
  /// Mines \p window at threshold \p min_support (> 0).
  MiningOutput Mine(const std::vector<Transaction>& window,
                    Support min_support) const;
};

}  // namespace butterfly

#endif  // BUTTERFLY_MINING_ECLAT_H_
