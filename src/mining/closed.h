/// \file closed.h
/// \brief Closed frequent itemsets.
///
/// An itemset X is *closed* iff no strict superset has the same support.
/// Moment (the paper's substrate) maintains exactly the closed frequent
/// itemsets of the sliding window; this static miner defines the ground truth
/// Moment is validated against, and FilterClosed/ExpandClosed convert between
/// the closed and the full frequent representations (every frequent itemset's
/// support is the maximum support of the closed supersets containing it).

#ifndef BUTTERFLY_MINING_CLOSED_H_
#define BUTTERFLY_MINING_CLOSED_H_

#include <vector>

#include "common/transaction.h"
#include "mining/mining_result.h"

namespace butterfly {

/// Keeps only the closed itemsets of a full frequent-itemset output. Relies
/// on the fact that if any strict superset shares X's support, some immediate
/// superset X ∪ {i} does (and, being frequent, was mined).
MiningOutput FilterClosed(const MiningOutput& all_frequent);

/// Reconstructs ALL frequent itemsets (with supports) from the closed ones:
/// T(X) = max { T(Z) : Z closed, X ⊆ Z }, and X is frequent iff some closed
/// superset is. MapCetMiner and RecomputeStreamMiner expand with it; Moment
/// walks its CET instead (MomentMiner::GetAllFrequent), and this is the
/// oracle that walk is tested against.
MiningOutput ExpandClosed(const MiningOutput& closed);

/// A batch miner returning only the closed frequent itemsets.
class ClosedMiner {
 public:
  /// Mines \p window at threshold \p min_support (> 0).
  MiningOutput Mine(const std::vector<Transaction>& window,
                    Support min_support) const;
};

}  // namespace butterfly

#endif  // BUTTERFLY_MINING_CLOSED_H_
