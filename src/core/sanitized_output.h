/// \file sanitized_output.h
/// \brief The sanitized release: what Butterfly publishes instead of the raw
/// mining output.

#ifndef BUTTERFLY_CORE_SANITIZED_OUTPUT_H_
#define BUTTERFLY_CORE_SANITIZED_OUTPUT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/itemset.h"
#include "common/types.h"
#include "inference/inclusion_exclusion.h"

namespace butterfly {

/// One released itemset. Only `itemset` and `sanitized_support` are visible
/// to consumers; `bias` and `variance` are scheme metadata carried along for
/// utility/privacy accounting (a Kerckhoffs adversary may know them too —
/// the privacy guarantee rests on the noise variance, not on secrecy).
struct SanitizedItemset {
  Itemset itemset;
  Support sanitized_support = 0;
  double bias = 0;
  double variance = 0;

  bool operator==(const SanitizedItemset& other) const = default;
};

/// A sealed sanitized release for one window.
class SanitizedOutput {
 public:
  SanitizedOutput() = default;
  SanitizedOutput(Support min_support, Support window_size)
      : min_support_(min_support), window_size_(window_size) {}

  void Add(SanitizedItemset item);
  /// Sorts the items by itemset (only checks the order when they were added
  /// in it); call once after the last Add.
  void Seal();

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  Support min_support() const { return min_support_; }
  Support window_size() const { return window_size_; }

  const std::vector<SanitizedItemset>& items() const { return items_; }

  /// The released (sanitized) support of \p itemset, if released.
  std::optional<Support> SanitizedSupportOf(const Itemset& itemset) const;

  const SanitizedItemset* Find(const Itemset& itemset) const;

  /// The adversary's bias-corrected view: E[T(X) | release] = T̃(X) − β(X)
  /// for released X; the window size for the empty itemset. This is the
  /// provider to plug into DerivePatternEstimate when measuring prig.
  RealSupportProvider AsEstimatorProvider() const;

  std::string ToString() const;

 private:
  Support min_support_ = 0;
  Support window_size_ = 0;
  bool sealed_ = false;  ///< Seal() sorted items_, enabling binary search
  std::vector<SanitizedItemset> items_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_SANITIZED_OUTPUT_H_
