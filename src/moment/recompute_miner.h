/// \file recompute_miner.h
/// \brief The naive stream-mining baseline: keep the window, re-mine it from
/// scratch with the closed-itemset miner whenever output is requested. This
/// is the strawman Moment exists to beat; the ablation_moment benchmark puts
/// numbers on that claim in this codebase.

#ifndef BUTTERFLY_MOMENT_RECOMPUTE_MINER_H_
#define BUTTERFLY_MOMENT_RECOMPUTE_MINER_H_

#include "mining/closed.h"
#include "stream/sliding_window.h"

namespace butterfly {

/// A sliding-window miner that recomputes per request.
class RecomputeStreamMiner {
 public:
  /// \param window_capacity the window size H (> 0).
  /// \param min_support the minimum support C (> 0).
  RecomputeStreamMiner(size_t window_capacity, Support min_support)
      : window_(window_capacity), min_support_(min_support) {}

  void Append(Transaction t) { window_.Append(std::move(t)); }

  const SlidingWindow& window() const { return window_; }
  Support min_support() const { return min_support_; }

  /// Closed frequent itemsets of the current window (full re-mining).
  MiningOutput GetClosedFrequent() const {
    return ClosedMiner().Mine(window_.Snapshot(), min_support_);
  }

  /// All frequent itemsets of the current window.
  MiningOutput GetAllFrequent() const {
    return ExpandClosed(GetClosedFrequent());
  }

 private:
  SlidingWindow window_;
  Support min_support_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_MOMENT_RECOMPUTE_MINER_H_
