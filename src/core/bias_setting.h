/// \file bias_setting.h
/// \brief Per-FEC bias optimization: the order-preserving dynamic program
/// (Algorithm 1), the ratio-preserving bottom-up rule (Algorithm 2), and the
/// λ-blend hybrid (§VI-C). Every optimizer runs on the calling thread; a
/// deployment gets its parallelism from running many engines at once
/// (service/engine_fleet.h), not from splitting one DP.

#ifndef BUTTERFLY_CORE_BIAS_SETTING_H_
#define BUTTERFLY_CORE_BIAS_SETTING_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/config.h"

namespace butterfly {

/// The inputs the optimizers need about one FEC.
struct FecProfile {
  Support support = 0;       ///< t_i
  size_t member_count = 0;   ///< s_i, weighting inversions in Algorithm 1
  double max_bias = 0;       ///< βᵐ_i from MaxAdjustableBias
};

/// All-zero biases (the basic scheme's setting).
std::vector<double> ZeroBiases(size_t n);

/// Preallocated working memory for the order-preserving DP, reusable across
/// calls so the per-release hot path performs no steady-state allocation. A
/// default-constructed scratch is valid; buffers grow on first use and keep
/// their capacity afterwards. Not thread-safe: use one scratch per concurrent
/// caller.
///
/// Step i's rows are its surviving windows q, and each row is compact: it
/// stores a cost and a backtrack byte per slot of its band [lo, hi) (the
/// entering FEC's candidates at distance 1 .. α above the estimator of q's
/// last FEC), then, if hi < r, one tail slot that stands for every candidate
/// in [hi, r). Rows whose last FECs share a digit share a band, so bands are
/// kept per class, not per row.
struct BiasDpScratch {
  /// The layout of one step's rows.
  struct Step {
    size_t rows = 0;     ///< surviving windows q
    size_t classes = 0;  ///< band classes; row q's class is q % classes
    size_t stride = 0;   ///< slots per row: the widest band plus its tail
    size_t dropped = 0;  ///< offset of the step's row 0 in `dropped`
    size_t band = 0;     ///< offset of the step's class 0 in the band arrays
  };
  std::vector<std::vector<int64_t>> est;  ///< est[i][c] = t_i + grid_i[c]
  std::vector<Step> steps;
  /// Compact rows of steps i−1 and i; only live rows are written.
  std::vector<double> prev_cost;
  std::vector<double> cur_cost;
  std::vector<uint8_t> prev_live;  ///< per row: 1 if its states are finite
  std::vector<uint8_t> cur_live;
  std::vector<uint32_t> prev_rows;  ///< step i−1's live rows, ascending
  std::vector<uint32_t> cur_rows;   ///< step i's live rows, ascending
  /// Per (step, row) backtrack digits, laid out as the rows' costs.
  std::vector<uint8_t> dropped;
  std::vector<uint8_t> band_lo;    ///< per (step, class): first band slot
  std::vector<uint8_t> band_hi;    ///< per (step, class): band end, the tail
  std::vector<uint64_t> rq_bits;   ///< a step's live surviving windows
  std::vector<uint8_t> choice;     ///< backtracked candidate per FEC
};

/// Order-preserving bias setting (Algorithm 1). FECs must be strictly
/// ascending by support. Minimizes Σ_{i<j} (s_i + s_j)(α + 1 − d_ij)² over a
/// γ-window via dynamic programming on integer bias grids, subject to
/// strictly increasing estimators e_i = t_i + β_i; α is the noise region
/// length. The grid resolution adapts to the state budget in
/// \p opt so that the table stays within max_states entries.
///
/// The DP runs over compact rows (see BiasDpScratch) indexed by mixed-radix
/// packed candidate windows; \p scratch (optional) lets callers reuse them
/// across releases. Equal-cost ties are broken toward the lexicographically
/// smallest candidate window, so the result is deterministic and identical
/// to OrderPreservingBiasesReference. Each step is an output-major sweep:
/// for each surviving window q (the digits kept when the oldest FEC leaves),
/// slot c takes the smallest total base + ((T_0 + T_1) + …) over the dropped
/// digits d0, the reference's association, and the first d0 that reaches it
/// (the backtrack byte), as the reference's strict-< sweep in ascending d0
/// keeps. Every cost and backtrack byte equals the reference's because:
///  - Only columns that can win are read: those whose base is finite and
///    strictly below every earlier column's base for q. The dropped FEC's
///    estimators rise with d0 and the pair cost does not grow with distance,
///    so an earlier column's total is <= a later one's at every candidate
///    (IEEE addition is monotone), and for γ = 1 an earlier column is
///    feasible wherever a later one is.
///  - Compact rows: a row stores its band [lo, hi), the candidates at
///    distance 1 .. α above the estimator of q's last FEC, and one tail value
///    for [hi, r). Below the band no finite state lies; above it every pair
///    cost is 0.0, so each column's total is its base, and the last picked
///    column (the first with the smallest base) wins every tail slot.
///  - Tails read once: column d0 of q reads the previous row (d0, q's other
///    digits) at q's last digit dl, a band value or that row's tail. The
///    previous rows' bands rise with d0 (at γ = 2) or are all the same (γ >=
///    3), so the columns are a run of tails, then band values; the tails'
///    strict prefix minima are taken once per surviving prefix and shared by
///    every dl. A tail column's dropped FEC lies α + 1 or more below dl's,
///    so its pair cost with every slot of q is 0.0.
///  - One evaluation per band slot: a column whose dropped FEC lies α + 1
///    or more below c adds T_0 = 0.0, so its total base + ((0.0 + T_1) + …)
///    falls with its base and the last such column is the smallest; a walk
///    back over totals that round to the same double finds the first of
///    them. Only the at most α columns nearer c are summed explicitly. Pair
///    costs are computed in place with the reference's expression.
///  - A surviving window no column reaches is never visited: each step lists
///    its live rows, and the next step visits only the windows they feed.
/// Precondition: opt.max_states <= kMaxOrderStates (ButterflyConfig::Validate
/// enforces it), which bounds every step's table at kMaxOrderStates states.
std::vector<double> OrderPreservingBiases(const std::vector<FecProfile>& fecs,
                                          int64_t alpha,
                                          const OrderOptConfig& opt,
                                          BiasDpScratch* scratch = nullptr);

/// The retained map-based reference implementation of Algorithm 1: one
/// ordered map of packed-window states per step. Bit-identical to
/// OrderPreservingBiases (the equivalence is pinned by the frontier and
/// property tests); kept purely as the oracle for those tests and as the
/// micro-benchmark baseline.
std::vector<double> OrderPreservingBiasesReference(
    const std::vector<FecProfile>& fecs, int64_t alpha,
    const OrderOptConfig& opt);

/// Ratio-preserving bias setting (Algorithm 2): β_1 = βᵐ_1 and
/// β_i = β_{i-1}·t_i/t_{i-1} (so β_i ∝ t_i), clamped into [−βᵐ_i, βᵐ_i]
/// (Lemma 3 shows the clamp never binds for exact inputs).
std::vector<double> RatioPreservingBiases(const std::vector<FecProfile>& fecs);

/// Hybrid blend β = λ·β_op + (1 − λ)·β_rp, clamped to the maximum adjustable
/// bias of each FEC.
std::vector<double> HybridBiases(const std::vector<FecProfile>& fecs,
                                 const std::vector<double>& order_biases,
                                 const std::vector<double>& ratio_biases,
                                 double lambda);

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_BIAS_SETTING_H_
