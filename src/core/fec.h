/// \file fec.h
/// \brief Frequency equivalence classes (Definition 5 of the paper).
///
/// A FEC groups the frequent itemsets sharing one support value. The
/// optimized schemes perturb per FEC — every member receives the same
/// sanitized support — so that within-class equality (and hence the order
/// and ratio structure it carries) survives sanitization exactly.

#ifndef BUTTERFLY_CORE_FEC_H_
#define BUTTERFLY_CORE_FEC_H_

#include <cstdint>
#include <map>
#include <vector>

#include "mining/mining_result.h"

namespace butterfly {

/// One frequency equivalence class.
struct Fec {
  Support support = 0;            ///< t_i, the members' common true support
  std::vector<Itemset> members;   ///< itemsets with this support, ascending

  size_t size() const { return members.size(); }
};

/// A borrowed, support-ascending view of a FEC partition. The pointees are
/// owned by the producer (a local partition or a FecPartitioner) and stay
/// valid until it next mutates.
using FecView = std::vector<const Fec*>;

/// Partitions a mining output into FECs, strictly ascending by support.
std::vector<Fec> PartitionIntoFecs(const MiningOutput& output);

/// Maintains the support→FEC partition of a mined output *incrementally*
/// across window slides: Sync patches only the itemsets named by the
/// producer's MiningOutputDelta (the same delta the Moment expansion cache
/// computes), instead of rebuilding and re-sorting every class per window.
/// The resulting partition — class order and member order — is always
/// identical to PartitionIntoFecs over the full output.
class FecPartitioner {
 public:
  /// Brings the partition up to \p out, the producer's output at version
  /// \p version; \p delta describes the change from the previous version.
  /// Falls back to a full rebuild when the delta cannot be applied (first
  /// sync, producer rebuild, or a missed version). Idempotent per version.
  void Sync(const MiningOutput& out, uint64_t version,
            const MiningOutputDelta& delta);

  /// The current partition, strictly ascending by support. Pointers stay
  /// valid until the next Sync or Reset.
  const FecView& view() const { return view_; }

  /// Sum of member counts across classes (= size of the mirrored output).
  size_t total_members() const { return total_members_; }

  /// True iff the last Sync applied the delta instead of rebuilding.
  bool last_sync_was_incremental() const { return last_incremental_; }

  /// Drops all state; the next Sync rebuilds from the full output.
  void Reset();

 private:
  void Rebuild(const MiningOutput& out);
  void Insert(const Itemset& itemset, Support support);
  void Remove(const Itemset& itemset, Support support);
  void RefreshView();

  std::map<Support, Fec> classes_;
  FecView view_;
  bool view_dirty_ = false;
  bool synced_ = false;
  bool last_incremental_ = false;
  uint64_t applied_version_ = 0;
  size_t total_members_ = 0;
};

/// The maximum adjustable bias βᵐ = sqrt(ε·t² − σ²) (Definition 7, with the
/// realized noise variance in place of δK²/2 so the ε guarantee is honored
/// exactly). Returns 0 when the argument of the root is non-positive.
double MaxAdjustableBias(Support support, double epsilon,
                         double noise_variance);

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_FEC_H_
