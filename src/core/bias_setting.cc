#include "core/bias_setting.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>

#include "common/check.h"

namespace butterfly {

std::vector<double> ZeroBiases(size_t n) { return std::vector<double>(n, 0.0); }

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Integer bias candidates for one FEC: a symmetric grid over [−βᵐ, βᵐ] with
// at most `max_candidates` points, always containing 0 (so the zero-bias
// configuration — feasible because supports are strictly increasing — is
// always reachable). Writes into *out to reuse its capacity across calls.
void BiasGridInto(double max_bias, size_t max_candidates,
                  std::vector<int64_t>* out) {
  out->clear();
  int64_t bound = checked_int64(std::floor(max_bias));
  if (bound <= 0 || max_candidates <= 1) {
    out->push_back(0);
    return;
  }
  size_t span = static_cast<size_t>(2 * bound + 1);
  size_t points = std::min(max_candidates | 1u, span);  // odd => includes 0
  out->reserve(points);
  for (size_t i = 0; i < points; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(points - 1);
    const double spread = static_cast<double>(bound);
    out->push_back(checked_int64(std::round(-spread + frac * 2.0 * spread)));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

// Pairwise inversion-risk cost (the objective of Algorithm 1): zero once the
// uncertainty regions are separated by at least α + 1.
double PairCost(const FecProfile& a, const FecProfile& b, int64_t distance,
                int64_t alpha) {
  if (distance >= alpha + 1) return 0.0;
  double gap = static_cast<double>(alpha + 1 - distance);
  return static_cast<double>(a.member_count + b.member_count) * gap * gap;
}

/// The per-FEC grid size for one state budget: the DP window holds γ FECs,
/// so grids of size G yield at most G^γ states.
size_t DeriveGridCap(const OrderOptConfig& opt, size_t gamma) {
  size_t grid_cap = opt.max_candidates;
  if (gamma > 1) {
    double budget = std::pow(static_cast<double>(opt.max_states),
                             1.0 / static_cast<double>(gamma));
    grid_cap = std::min<size_t>(
        grid_cap, std::max<size_t>(3, static_cast<size_t>(budget)));
  }
  // Candidate indices are bytes (0xff is the "nothing dropped" sentinel), so
  // a grid never exceeds 255 points.
  return std::min<size_t>(grid_cap, 255);
}

// Packs up to 8 candidate indices (each < 255) into a state key. The first
// window element lands in the most significant byte, so ascending key order
// is lexicographic window order — the tie-break order shared with the
// flat-table DP.
uint64_t PackKey(const std::vector<uint8_t>& window) {
  uint64_t key = 0;
  for (uint8_t idx : window) key = (key << 8) | (uint64_t(idx) + 1);
  return key;
}

struct DpEntry {
  double cost = kInf;
  uint8_t dropped = 0xff;  // candidate index of the FEC that left the window
};

// ---------------------------------------------------------------------------
// Row kernel. For each candidate c from c0 it sums the window's pair rows in
// window order, base + ((row0 + row1) + …), the association of the
// reference's added-loop, and keeps the total where it is strictly below
// best[c], so a tie keeps the earlier column as the reference's strict-<
// does. The window length W is a template parameter so the sum unrolls; the
// select is branch-free.
// ---------------------------------------------------------------------------

template <size_t W>
void MergeRows(double* best, uint8_t* drop, const double* const* rows,
               double base, uint8_t dropped, size_t c0, size_t n) {
  // Local copies: a store through the byte pointer `drop` may alias
  // anything, so the pointers behind `rows` would be reloaded every element.
  const double* r[W];
  for (size_t k = 0; k < W; ++k) r[k] = rows[k];
  for (size_t c = c0; c < n; ++c) {
    double sum = r[0][c];
    for (size_t k = 1; k < W; ++k) sum += r[k][c];
    const double total = base + sum;
    const double cur = best[c];
    const uint8_t win = static_cast<uint8_t>(-int{total < cur});
    best[c] = total < cur ? total : cur;
    drop[c] = static_cast<uint8_t>((dropped & win) | (drop[c] & ~win));
  }
}

// ---------------------------------------------------------------------------
// Output-major step kernel. One DP step maps previous states p to output
// slots (q, c) where q = p % keep is the part of the window that survives and
// d0 = p / keep is the dropped digit. For a fixed slot, the reference sweep's
// updates arrive in ascending d0 with strict-< wins; the kernel replays
// exactly that order per slot, so every cost, tie-break and backtrack byte
// matches the map-based oracle. A column whose base is not strictly below
// every base already merged for q cannot win a slot, so it is skipped (why
// that is exact: OrderPreservingBiases in bias_setting.h).
// ---------------------------------------------------------------------------

/// Everything one step needs, by value or raw pointer into the scratch.
struct StepJob {
  const double* prev_cost = nullptr;
  double* cur_cost = nullptr;
  uint8_t* drop_row = nullptr;
  const double* pair = nullptr;     ///< this step's pairwise-cost tables
  const uint32_t* c_min = nullptr;  ///< per last-digit feasibility bound
  size_t pair_off[8] = {};          ///< per window position into `pair`
  size_t radix[8] = {};             ///< grid sizes of the window's FECs
  size_t r_cur = 0;                 ///< grid size of the entering FEC
  size_t keep = 0;                  ///< surviving-state count (the q axis)
  bool drops = false;               ///< window full: oldest FEC leaves
};

template <size_t W>
void RunBiasStep(const StepJob& j) {
  // The surviving window digits of q (mixed radix, last digit least
  // significant) and their pair rows, advanced together as an odometer.
  uint8_t dig[8] = {0};
  const double* rows[W] = {};
  const size_t r_cur = j.r_cur;
  const size_t first_pos = j.drops ? 1 : 0;
  for (size_t k = first_pos; k < W; ++k) rows[k] = j.pair + j.pair_off[k];
  for (size_t q = 0; q < j.keep; ++q) {
    double* out = j.cur_cost + q * r_cur;
    uint8_t* dr = j.drop_row + q * r_cur;
    if (j.drops) {
      double min_base = kInf;  // smallest base swept for this q
      for (size_t d0 = 0; d0 < j.radix[0]; ++d0) {
        const double base = j.prev_cost[d0 * j.keep + q];
        if (!(base < min_base)) continue;
        min_base = base;
        rows[0] = j.pair + j.pair_off[0] + d0 * r_cur;
        // For γ = 1 the dropped digit is also the window's last digit.
        const size_t c_min = j.c_min[W == 1 ? d0 : dig[W - 1]];
        MergeRows<W>(out, dr, rows, base, static_cast<uint8_t>(d0), c_min,
                     r_cur);
      }
    } else {
      const double base = j.prev_cost[q];
      if (base < kInf) {
        MergeRows<W>(out, dr, rows, base, uint8_t{0xff}, j.c_min[dig[W - 1]],
                     r_cur);
      }
    }
    for (size_t k = W; k-- > first_pos;) {
      if (++dig[k] < j.radix[k]) {
        rows[k] += r_cur;
        break;
      }
      dig[k] = 0;
      rows[k] = j.pair + j.pair_off[k];
    }
  }
}

/// The step kernel per window length w (γ <= 8, so w lies in [1, 8]).
constexpr void (*kRunBiasStep[9])(const StepJob&) = {
    nullptr,         &RunBiasStep<1>, &RunBiasStep<2>,
    &RunBiasStep<3>, &RunBiasStep<4>, &RunBiasStep<5>,
    &RunBiasStep<6>, &RunBiasStep<7>, &RunBiasStep<8>};

/// Fills the pairwise-cost tables (k-major, each T_k laid out [d][c]) and the
/// per-last-digit feasibility bounds for step \p i. Pure function of the
/// grids/estimators.
void BuildStepTables(const std::vector<FecProfile>& fecs,
                     const std::vector<std::vector<int64_t>>& grids,
                     const std::vector<std::vector<int64_t>>& est,
                     int64_t alpha, size_t i, size_t gamma, double* pair_dst,
                     uint32_t* c_min_dst) {
  const size_t w = std::min(i, gamma);
  const size_t first_fec = i - w;
  const size_t r_cur = grids[i].size();
  const int64_t* est_cur = est[i].data();
  // First feasible candidate per last-digit value: estimators are ascending
  // in the candidate index, so the e_{i-1} < e_i constraint is a lower bound
  // on c. Two-pointer over the two ascending arrays.
  {
    const int64_t* est_prev = est[i - 1].data();
    const size_t r_last = grids[i - 1].size();
    size_t c = 0;
    for (size_t d = 0; d < r_last; ++d) {
      while (c < r_cur && est_cur[c] <= est_prev[d]) ++c;
      c_min_dst[d] = static_cast<uint32_t>(c);
    }
  }
  // PairCost is nonzero only below distance α + 1, and the distance
  // est_cur[c] − est_j[d] rises with c, so each row is a nonzero prefix and
  // a zero tail. The prefix grows with d, since est_j rises with d.
  double* table = pair_dst;
  for (size_t k = 0; k < w; ++k) {
    const size_t j = first_fec + k;
    const int64_t* est_j = est[j].data();
    size_t nonzero = 0;
    for (size_t d = 0; d < grids[j].size(); ++d) {
      while (nonzero < r_cur && est_cur[nonzero] - est_j[d] < alpha + 1) {
        ++nonzero;
      }
      double* row = table + d * r_cur;
      for (size_t c = 0; c < nonzero; ++c) {
        row[c] = PairCost(fecs[j], fecs[i], est_cur[c] - est_j[d], alpha);
      }
      std::fill(row + nonzero, row + r_cur, 0.0);
    }
    table += grids[j].size() * r_cur;
  }
}

}  // namespace

std::vector<double> OrderPreservingBiasesReference(
    const std::vector<FecProfile>& fecs, int64_t alpha,
    const OrderOptConfig& opt) {
  const size_t n = fecs.size();
  if (n == 0) return {};
  const size_t gamma = std::min<size_t>(opt.gamma, 8);
  if (gamma == 0 || n == 1) return ZeroBiases(n);

  const size_t grid_cap = DeriveGridCap(opt, gamma);
  std::vector<std::vector<int64_t>> grids(n);
  for (size_t i = 0; i < n; ++i) {
    BiasGridInto(fecs[i].max_bias, grid_cap, &grids[i]);
  }

  // steps[i]: state (packed candidate indices of FECs [i-γ+1 .. i], or fewer
  // while the window fills) -> best cost and the dropped index for backtrack.
  // Ordered maps so equal-cost ties resolve in lexicographic state order.
  std::vector<std::map<uint64_t, DpEntry>> steps(n);

  // Initialize with FEC 0 alone in the window.
  for (uint8_t c = 0; c < grids[0].size(); ++c) {
    steps[0][PackKey({c})] = DpEntry{0.0, 0xff};
  }

  std::vector<uint8_t> window;
  for (size_t i = 1; i < n; ++i) {
    const size_t prev_window_len = std::min(i, gamma);
    const bool drops = prev_window_len == gamma;
    for (const auto& [prev_key, prev_entry] : steps[i - 1]) {
      // Unpack the previous window (candidate indices of FECs
      // [i-prev_window_len .. i-1]).
      window.assign(prev_window_len, 0);
      uint64_t key = prev_key;
      for (size_t k = prev_window_len; k-- > 0;) {
        window[k] = static_cast<uint8_t>((key & 0xff) - 1);
        key >>= 8;
      }

      const size_t first_fec = i - prev_window_len;
      const int64_t prev_estimator =
          fecs[i - 1].support + grids[i - 1][window.back()];

      for (uint8_t c = 0; c < grids[i].size(); ++c) {
        const int64_t estimator = fecs[i].support + grids[i][c];
        if (estimator <= prev_estimator) continue;  // e_{i-1} < e_i required

        double added = 0.0;
        for (size_t k = 0; k < prev_window_len; ++k) {
          size_t j = first_fec + k;
          int64_t ej = fecs[j].support + grids[j][window[k]];
          added += PairCost(fecs[j], fecs[i], estimator - ej, alpha);
        }

        // Build the new window key: drop the oldest if the window is full.
        uint64_t new_key = 0;
        size_t start = drops ? 1 : 0;
        for (size_t k = start; k < prev_window_len; ++k) {
          new_key = (new_key << 8) | (uint64_t(window[k]) + 1);
        }
        new_key = (new_key << 8) | (uint64_t(c) + 1);

        DpEntry& slot = steps[i][new_key];
        double total = prev_entry.cost + added;
        if (total < slot.cost) {
          slot.cost = total;
          slot.dropped = drops ? window[0] : 0xff;
        }
      }
    }
    assert(!steps[i].empty());
  }

  // Pick the cheapest final state and backtrack.
  uint64_t best_key = 0;
  double best_cost = kInf;
  for (const auto& [key, entry] : steps[n - 1]) {
    if (entry.cost < best_cost) {
      best_cost = entry.cost;
      best_key = key;
    }
  }

  std::vector<uint8_t> choice(n, 0);
  uint64_t key = best_key;
  {
    // The final window covers FECs [n - w .. n-1].
    size_t w = std::min(n, gamma);
    uint64_t k = key;
    for (size_t idx = n; idx-- > n - w;) {
      choice[idx] = static_cast<uint8_t>((k & 0xff) - 1);
      k >>= 8;
    }
    // Walk back: at step i the stored `dropped` is the choice of FEC i - γ.
    for (size_t i = n - 1; i >= gamma; --i) {
      const DpEntry& entry = steps[i].at(key);
      choice[i - gamma] = entry.dropped;
      // Parent key: prepend dropped, remove last.
      std::vector<uint8_t> cur(gamma);
      uint64_t kk = key;
      for (size_t k2 = gamma; k2-- > 0;) {
        cur[k2] = static_cast<uint8_t>((kk & 0xff) - 1);
        kk >>= 8;
      }
      size_t parent_len = std::min(i, gamma);
      // Current window indices are FECs [i-γ+1 .. i]; parent window is
      // [i-parent_len .. i-1] = dropped ++ current[0..γ-2].
      uint64_t parent = 0;
      std::vector<uint8_t> parent_window;
      if (parent_len == gamma) parent_window.push_back(entry.dropped);
      for (size_t k2 = 0; k2 + 1 < gamma; ++k2) parent_window.push_back(cur[k2]);
      for (uint8_t idx : parent_window) parent = (parent << 8) | (uint64_t(idx) + 1);
      key = parent;
    }
  }

  std::vector<double> biases(n);
  for (size_t i = 0; i < n; ++i) {
    biases[i] = static_cast<double>(grids[i][choice[i]]);
  }
  return biases;
}

std::vector<double> OrderPreservingBiases(const std::vector<FecProfile>& fecs,
                                          int64_t alpha,
                                          const OrderOptConfig& opt,
                                          BiasDpScratch* scratch) {
  const size_t n = fecs.size();
  if (n == 0) return {};
  const size_t gamma = std::min<size_t>(opt.gamma, 8);
  if (gamma == 0 || n == 1) return ZeroBiases(n);

  BiasDpScratch local;
  BiasDpScratch& s = scratch ? *scratch : local;

  const size_t grid_cap = DeriveGridCap(opt, gamma);
  if (s.grids.size() < n) s.grids.resize(n);
  if (s.est.size() < n) s.est.resize(n);
  for (size_t i = 0; i < n; ++i) {
    BiasGridInto(fecs[i].max_bias, grid_cap, &s.grids[i]);
    s.est[i].clear();
    s.est[i].reserve(s.grids[i].size());
    for (int64_t b : s.grids[i]) s.est[i].push_back(fecs[i].support + b);
  }

  // State space per step: the mixed-radix product of the window's grid sizes
  // (most significant digit = earliest FEC in the window, so ascending flat
  // index is lexicographic window order). With max_states at most
  // kMaxOrderStates, DeriveGridCap keeps every step at or below that many.
  s.state_count.assign(n, 0);
  s.step_offset.assign(n, 0);
  size_t backtrack_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t w = std::min(i + 1, gamma);
    size_t states = 1;
    for (size_t j = i + 1 - w; j <= i; ++j) states *= s.grids[j].size();
    s.state_count[i] = states;
    s.step_offset[i] = backtrack_bytes;
    backtrack_bytes += states;
  }
  s.dropped.assign(backtrack_bytes, 0xff);

  // Each step's pairwise cost tables and feasibility bounds are built just
  // before the step, into buffers sized for the largest step.
  size_t max_step_doubles = 0;
  size_t max_grid = 0;
  for (size_t i = 1; i < n; ++i) {
    const size_t w = std::min(i, gamma);
    const size_t first_fec = i - w;
    size_t step_doubles = 0;
    for (size_t k = 0; k < w; ++k) {
      step_doubles += s.grids[first_fec + k].size() * s.grids[i].size();
    }
    max_step_doubles = std::max(max_step_doubles, step_doubles);
    max_grid = std::max(max_grid, s.grids[i - 1].size());
  }
  s.pair_cost.resize(max_step_doubles);
  s.c_min.resize(max_grid);

  // Step 0: FEC 0 alone in the window, zero cost for every candidate.
  s.prev_cost.assign(s.state_count[0], 0.0);

  for (size_t i = 1; i < n; ++i) {
    const size_t w_prev = std::min(i, gamma);
    const bool drops = w_prev == gamma;
    const size_t first_fec = i - w_prev;
    const size_t prev_states = s.state_count[i - 1];
    const size_t cur_states = s.state_count[i];
    const size_t r_cur = s.grids[i].size();
    // Digits kept from the previous window when the oldest drops out.
    const size_t keep =
        drops ? prev_states / s.grids[first_fec].size() : prev_states;

    // Every output slot starts unreached; the kernel lowers those it reaches.
    if (s.cur_cost.size() < cur_states) s.cur_cost.resize(cur_states);
    std::fill(s.cur_cost.begin(), s.cur_cost.begin() + cur_states, kInf);

    BuildStepTables(fecs, s.grids, s.est, alpha, i, gamma, s.pair_cost.data(),
                    s.c_min.data());

    StepJob job;
    job.prev_cost = s.prev_cost.data();
    job.cur_cost = s.cur_cost.data();
    job.drop_row = s.dropped.data() + s.step_offset[i];
    job.pair = s.pair_cost.data();
    job.c_min = s.c_min.data();
    {
      size_t off = 0;
      for (size_t k = 0; k < w_prev; ++k) {
        job.pair_off[k] = off;
        job.radix[k] = s.grids[first_fec + k].size();
        off += job.radix[k] * r_cur;
      }
    }
    job.r_cur = r_cur;
    job.keep = keep;
    job.drops = drops;
    kRunBiasStep[w_prev](job);
    std::swap(s.prev_cost, s.cur_cost);
    assert(std::any_of(s.prev_cost.begin(), s.prev_cost.begin() + cur_states,
                       [](double c) { return c < kInf; }));
  }

  // Pick the cheapest final state (ties to the lexicographically smallest,
  // matching the reference's ordered-map sweep) and backtrack.
  size_t best_state = 0;
  double best_cost = kInf;
  for (size_t p = 0; p < s.state_count[n - 1]; ++p) {
    if (s.prev_cost[p] < best_cost) {
      best_cost = s.prev_cost[p];
      best_state = p;
    }
  }

  s.choice.assign(n, 0);
  {
    // The final window covers FECs [n - w .. n-1].
    const size_t w = std::min(n, gamma);
    size_t idx = best_state;
    for (size_t pos = n; pos-- > n - w;) {
      s.choice[pos] = static_cast<uint8_t>(idx % s.grids[pos].size());
      idx /= s.grids[pos].size();
    }
    // Walk back: at step i the stored `dropped` is the choice of FEC i - γ.
    size_t state = best_state;
    for (size_t i = n - 1; i >= gamma; --i) {
      const uint8_t drop = s.dropped[s.step_offset[i] + state];
      s.choice[i - gamma] = drop;
      // Parent state at step i-1: dropped digit prepended, last removed.
      const size_t keep_prev =
          s.state_count[i - 1] / s.grids[i - gamma].size();
      state = static_cast<size_t>(drop) * keep_prev + state / s.grids[i].size();
    }
  }

  std::vector<double> biases(n);
  for (size_t i = 0; i < n; ++i) {
    biases[i] = static_cast<double>(s.grids[i][s.choice[i]]);
    // Algorithm 1 postcondition: the biased estimators e_i = t_i + β_i stay
    // strictly increasing — the DP admits only candidates that preserve the
    // released support order, and a violation here would let an adversary
    // detect rank inversions across FECs.
    BFLY_DCHECK_MSG(
        i == 0 || static_cast<double>(fecs[i - 1].support) + biases[i - 1] <
                      static_cast<double>(fecs[i].support) + biases[i],
        "order-preserving DP produced a non-monotone estimator");
  }
  return biases;
}

std::vector<double> RatioPreservingBiases(const std::vector<FecProfile>& fecs) {
  const size_t n = fecs.size();
  std::vector<double> biases(n, 0.0);
  if (n == 0) return biases;
  double t1 = static_cast<double>(fecs[0].support);
  double beta1 = fecs[0].max_bias;
  for (size_t i = 0; i < n; ++i) {
    double proportional = beta1 * static_cast<double>(fecs[i].support) / t1;
    biases[i] = std::min(proportional, fecs[i].max_bias);
  }
  return biases;
}

std::vector<double> HybridBiases(const std::vector<FecProfile>& fecs,
                                 const std::vector<double>& order_biases,
                                 const std::vector<double>& ratio_biases,
                                 double lambda) {
  assert(fecs.size() == order_biases.size());
  assert(fecs.size() == ratio_biases.size());
  std::vector<double> biases(fecs.size());
  for (size_t i = 0; i < fecs.size(); ++i) {
    double blended =
        lambda * order_biases[i] + (1.0 - lambda) * ratio_biases[i];
    biases[i] = std::clamp(blended, -fecs[i].max_bias, fecs[i].max_bias);
  }
  return biases;
}

}  // namespace butterfly
