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

/// Preallocated working memory for the flat-table order-preserving DP,
/// reusable across calls so the per-release hot path performs no steady-state
/// allocation. A default-constructed scratch is valid; buffers grow on first
/// use and keep their capacity afterwards. Not thread-safe: use one scratch
/// per concurrent caller.
struct BiasDpScratch {
  std::vector<std::vector<int64_t>> grids;  ///< per-FEC bias candidates
  std::vector<std::vector<int64_t>> est;    ///< est[i][c] = t_i + grid[i][c]
  std::vector<size_t> state_count;          ///< DP states per step
  std::vector<size_t> step_offset;          ///< per-step base into `dropped`
  std::vector<double> prev_cost;            ///< flat cost table, step i−1
  std::vector<double> cur_cost;             ///< flat cost table, step i
  std::vector<uint8_t> dropped;   ///< per (step, state) backtrack digit
  std::vector<double> pair_cost;  ///< the current step's pairwise-cost tables
  std::vector<uint32_t> c_min;    ///< per last-digit first feasible candidate
  std::vector<uint8_t> choice;    ///< backtracked candidate per FEC
};

/// Order-preserving bias setting (Algorithm 1). FECs must be strictly
/// ascending by support. Minimizes Σ_{i<j} (s_i + s_j)(α + 1 − d_ij)² over a
/// γ-window via dynamic programming on integer bias grids, subject to
/// strictly increasing estimators e_i = t_i + β_i; α is the noise region
/// length. The grid resolution adapts to the state budget in
/// \p opt so that the table stays within max_states entries.
///
/// The DP runs over dense flat tables indexed by mixed-radix packed candidate
/// windows; \p scratch (optional) lets callers reuse the tables across
/// releases. Equal-cost ties are broken toward the lexicographically
/// smallest candidate window, so the result is deterministic and identical
/// to OrderPreservingBiasesReference. Each step is an output-major sweep of
/// plain scalar row loops. Precondition: opt.max_states <= kMaxOrderStates
/// (ButterflyConfig::Validate enforces it), which bounds every step's table
/// at kMaxOrderStates states and the backtrack table at one byte per state
/// per FEC.
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
