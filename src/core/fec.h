/// \file fec.h
/// \brief Frequency equivalence classes (Definition 5 of the paper).
///
/// A FEC groups the frequent itemsets sharing one support value. The
/// optimized schemes perturb per FEC — every member receives the same
/// sanitized support — so that within-class equality (and hence the order
/// and ratio structure it carries) survives sanitization exactly. The bias
/// schemes read two numbers from each class, its support t_i and its size
/// s_i, so that is all a Fec holds: a member is any itemset with support t_i.

#ifndef BUTTERFLY_CORE_FEC_H_
#define BUTTERFLY_CORE_FEC_H_

#include <cstddef>
#include <vector>

#include "mining/mining_result.h"

namespace butterfly {

/// One frequency equivalence class.
struct Fec {
  Support support = 0;      ///< t_i, the members' common true support
  size_t member_count = 0;  ///< s_i, the itemsets with this support
};

/// Counts the FECs of a mining output, strictly ascending by support: counts
/// its support values over [lowest, highest], a range of at most H entries
/// for a window's output. Sealed and unsealed outputs give the same result.
std::vector<Fec> PartitionIntoFecs(const MiningOutput& output);

/// The FEC partition of one mined output. StreamPrivacyEngine rebuilds one
/// per release for its statistics.
class FecPartitioner {
 public:
  /// Replaces the partition with PartitionIntoFecs(\p out).
  void Rebuild(const MiningOutput& out) { fecs_ = PartitionIntoFecs(out); }

  /// The current partition, strictly ascending by support. References stay
  /// valid until the next Rebuild.
  const std::vector<Fec>& view() const { return fecs_; }

 private:
  std::vector<Fec> fecs_;
};

/// The maximum adjustable bias βᵐ = sqrt(ε·t² − σ²) (Definition 7, with the
/// realized noise variance in place of δK²/2 so the ε guarantee is honored
/// exactly). Returns 0 when the argument of the root is non-positive.
double MaxAdjustableBias(Support support, double epsilon,
                         double noise_variance);

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_FEC_H_
