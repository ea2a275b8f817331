/// \file map_cet_miner.h
/// \brief The pre-arena Moment implementation, preserved verbatim in spirit:
/// one heap-allocated CET node per itemset, `std::map` children and extension
/// counts, and support (re)counting by scanning window transactions.
///
/// This is NOT the production miner — MomentMiner (moment.h) replaced it with
/// a vertical-bitmap window index and an arena CET. It is kept for two jobs:
///
///  * differential oracle: the randomized equivalence suites pin MomentMiner
///    bit-identical (same closed itemsets, same supports, same canonical
///    order) to this implementation across window slides;
///  * bench baseline: the micro_miners bitmap-vs-map comparison quantifies
///    what the index + arena bought.

#ifndef BUTTERFLY_MOMENT_MAP_CET_MINER_H_
#define BUTTERFLY_MOMENT_MAP_CET_MINER_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/transaction.h"
#include "mining/mining_result.h"
#include "stream/sliding_window.h"

namespace butterfly {

/// Map-based incremental closed-frequent-itemset miner (legacy layout).
class MapCetMiner {
 public:
  /// \param window_capacity the window size H (> 0).
  /// \param min_support the minimum support C (> 0).
  MapCetMiner(size_t window_capacity, Support min_support);
  ~MapCetMiner();

  MapCetMiner(const MapCetMiner&) = delete;
  MapCetMiner& operator=(const MapCetMiner&) = delete;
  MapCetMiner(MapCetMiner&&) noexcept;
  MapCetMiner& operator=(MapCetMiner&&) noexcept;

  /// Appends the next stream record, expiring the oldest if the window is
  /// full, and updates the CET incrementally.
  void Append(Transaction t);

  Support min_support() const { return min_support_; }
  const SlidingWindow& window() const { return window_; }

  /// The closed frequent itemsets of the current window, with exact supports.
  MiningOutput GetClosedFrequent() const;

  /// All frequent itemsets of the current window (closed set expanded by
  /// ExpandClosed).
  MiningOutput GetAllFrequent() const;

  /// Deep self-check (see MomentMiner::Validate).
  Status Validate() const;

 private:
  struct CetNode;

  void UpdateAdd(CetNode* node, const Transaction& t);
  /// Returns true if the node should be removed from its parent.
  bool UpdateDelete(CetNode* node, const Transaction& t);

  void Explore(CetNode* node,
               const std::vector<const Transaction*>& containing);
  void ExpandFromCounts(CetNode* node,
                        const std::vector<const Transaction*>& containing);
  static void RecomputeClosed(CetNode* node);
  static bool HasUnpromisingBlocker(const CetNode& node);
  std::vector<const Transaction*> RecordsContaining(
      const Itemset& itemset) const;

  SlidingWindow window_;
  Support min_support_;
  std::unique_ptr<CetNode> root_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_MOMENT_MAP_CET_MINER_H_
