#include "core/bias_setting.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
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
  // The points round an increasing sequence spaced 2·bound/(points − 1) >= 1
  // apart, so they come out strictly ascending without a sort.
  BFLY_DCHECK_MSG(std::adjacent_find(out->begin(), out->end(),
                                     std::greater_equal<>()) == out->end(),
                  "bias grid not strictly ascending");
}

// Pairwise inversion-risk cost (the objective of Algorithm 1): zero once the
// uncertainty regions are separated by at least α + 1. BandCost is the
// nonzero branch, for a pair of weight s_a + s_b at a distance below α + 1.
double BandCost(double weight, int64_t distance, int64_t alpha) {
  const double gap = static_cast<double>(alpha + 1 - distance);
  return weight * gap * gap;
}

double PairCost(const FecProfile& a, const FecProfile& b, int64_t distance,
                int64_t alpha) {
  if (distance >= alpha + 1) return 0.0;
  return BandCost(static_cast<double>(a.member_count + b.member_count),
                  distance, alpha);
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
  // Candidate indices and grid sizes are bytes (the reference packs index + 1
  // into a key byte; the flat DP marks a dead row with its grid size), so a
  // grid never exceeds 255 points.
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
// Row kernel. For each candidate c in [lo, hi) it sums the window's pair rows
// in window order, base + ((row0 + row1) + …), the association of the
// reference's added-loop, and keeps the total and its dropped digit where the
// total is strictly below best[c], so a tie keeps the earlier column as the
// reference's strict-< does. The first column of an output row stores its
// totals instead. The window length W is a template parameter so the sum
// unrolls; the select is branch-free.
// ---------------------------------------------------------------------------

template <size_t W, bool kFirst>
void MergeRows(double* best, uint8_t* drop, const double* const* rows,
               double base, uint8_t digit, size_t lo, size_t hi) {
  // Local copies: a store through the byte pointer `drop` may alias
  // anything, so the pointers behind `rows` would be reloaded every element.
  const double* r[W];
  for (size_t k = 0; k < W; ++k) r[k] = rows[k];
  for (size_t c = lo; c < hi; ++c) {
    double sum = r[0][c];
    for (size_t k = 1; k < W; ++k) sum += r[k][c];
    const double total = base + sum;
    if (kFirst) {
      best[c] = total;
      drop[c] = digit;
    } else {
      const double cur = best[c];
      const uint8_t win = static_cast<uint8_t>(-int{total < cur});
      best[c] = total < cur ? total : cur;
      drop[c] = static_cast<uint8_t>((digit & win) | (drop[c] & ~win));
    }
  }
}

// Picks, in ascending d0 from begin to end, the columns whose base
// base[d0 * stride] is finite and strictly below every earlier one's, into
// digits/bases; returns how many. No other column can win an output slot
// (bias_setting.h says why). Which columns qualify varies from row to row, so
// the pass is branch-free.
template <typename Finite>
size_t PickColumns(size_t begin, size_t end, const double* base,
                   size_t stride, Finite finite, uint8_t* digits,
                   double* bases) {
  // Costs are never negative or NaN, so their bit patterns order like their
  // values; the floor kept as bits is selected without a branch.
  size_t m = 0;
  uint64_t floor = std::bit_cast<uint64_t>(kInf);
  for (size_t d0 = begin; d0 < end; ++d0) {
    const double b = base[d0 * stride];
    const uint64_t bits = std::bit_cast<uint64_t>(b);
    digits[m] = static_cast<uint8_t>(d0);
    bases[m] = b;
    const bool take = finite(d0) & (bits < floor);
    m += take;
    floor = take ? bits : floor;
  }
  return m;
}

/// Everything one step needs, by value or raw pointer into the scratch.
struct StepJob {
  const double* prev_cost = nullptr;
  const uint8_t* prev_live = nullptr;  ///< per previous row: first finite c
  double* cur_cost = nullptr;
  uint8_t* cur_live = nullptr;         ///< per output row: first finite c
  uint8_t* drop = nullptr;             ///< this step's backtrack bytes
  const double* pair = nullptr;        ///< this step's pairwise-cost tables
  const uint8_t* band_lo = nullptr;    ///< per last digit: first feasible c
  const uint8_t* band_hi = nullptr;    ///< per last digit: end of the band
  size_t pair_off[8] = {};             ///< per window position into `pair`
  size_t radix[8] = {};                ///< grid sizes of the window's FECs
  size_t r_cur = 0;                    ///< grid size of the entering FEC
  size_t keep = 0;                     ///< output rows (the q axis)
  bool drops = false;                  ///< window full: oldest FEC leaves
  const uint32_t* prev_rows = nullptr;  ///< the previous step's live rows
  size_t prev_row_count = 0;
  std::vector<uint32_t>* cur_rows = nullptr;  ///< receives the live rows
  uint64_t* rq_bits = nullptr;  ///< bitmap over rq, zero on entry and exit
};

// Completes output row q after its band [lo, hi) is merged: every column's
// total past the band is its base, so [hi, r_cur) takes the smallest picked
// base and its digit. Lists q as live for the next step.
void FinishRow(const StepJob& j, size_t q, size_t lo, size_t hi,
               double tail, uint8_t tail_digit) {
  double* out = j.cur_cost + q * j.r_cur;
  std::fill(out + hi, out + j.r_cur, tail);
  uint8_t* dr = j.drop + q * j.r_cur;
  std::fill(dr + hi, dr + j.r_cur, tail_digit);
  j.cur_live[q] = static_cast<uint8_t>(lo);
  j.cur_rows->push_back(static_cast<uint32_t>(q));
}

// ---------------------------------------------------------------------------
// Output-major step kernel. One DP step maps previous states p to output
// slots (q, c) where q = p % keep is the part of the window that survives and
// d0 = p / keep is the dropped digit. Only live q are visited, those some d0
// gives a finite base: the previous step's live rows name them, and its
// per-row first finite candidate tells which d0 do. For a live q the kernel
// picks the columns that can win a slot, merges them over the band [lo, hi)
// of q's last digit, and fills [hi, r_cur) with the smallest picked base;
// [0, lo) stays unwritten, as no finite state lies there. Why each shortcut
// is exact: OrderPreservingBiases in bias_setting.h.
// ---------------------------------------------------------------------------

template <size_t W>
void RunBiasStep(const StepJob& job) {
  // A local copy: the byte stores below could otherwise alias its fields.
  const StepJob j = job;
  const size_t r_cur = j.r_cur;
  const size_t r0 = j.drops ? j.radix[0] : 1;
  std::fill(j.cur_live, j.cur_live + j.keep, static_cast<uint8_t>(r_cur));
  uint8_t digits[256];
  double bases[256];
  const double* rows[W] = {};
  if (W == 1 && j.drops) {
    // γ = 1: one output row; column d0 is feasible from band_lo[d0], which
    // never decreases in d0, and its band ends at band_hi[d0].
    const size_t m = PickColumns(
        j.prev_live[0], r0, j.prev_cost, 1, [](size_t) { return true; },
        digits, bases);
    const size_t hi = j.band_hi[digits[m - 1]];
    rows[0] = j.pair + digits[0] * r_cur;
    MergeRows<W, true>(j.cur_cost, j.drop, rows, bases[0], digits[0],
                       j.band_lo[digits[0]], hi);
    for (size_t t = 1; t < m; ++t) {
      rows[0] = j.pair + digits[t] * r_cur;
      MergeRows<W, false>(j.cur_cost, j.drop, rows, bases[t], digits[t],
                          j.band_lo[digits[t]], hi);
    }
    FinishRow(j, 0, j.band_lo[digits[0]], hi, bases[m - 1], digits[m - 1]);
    return;
  }
  // q = rq * g_last + dl: dl is the digit of the window's last FEC, and rq
  // its other surviving digits. Previous state (d0, q) lies in previous row
  // d0 * rq_count + rq, so rq is live when one of those rows is.
  const size_t g_last = j.radix[W - 1];
  const size_t rq_count = j.keep / g_last;
  const size_t first_pos = j.drops ? 1 : 0;
  for (size_t r = 0; r < j.prev_row_count; ++r) {
    const size_t rq = j.prev_rows[r] % rq_count;
    j.rq_bits[rq / 64] |= uint64_t{1} << (rq % 64);
  }
  digits[0] = 0;  // what a step that drops nothing stores; never read
  for (size_t word = 0; word * 64 < rq_count; ++word) {
    for (uint64_t bits = j.rq_bits[word]; bits != 0; bits &= bits - 1) {
      const size_t rq = word * 64 + static_cast<size_t>(std::countr_zero(bits));
      // The pair rows of rq's digits.
      for (size_t k = W - 1, rest = rq; k-- > first_pos;) {
        rows[k] = j.pair + j.pair_off[k] + (rest % j.radix[k]) * r_cur;
        rest /= j.radix[k];
      }
      // Column d0 has a finite base for q iff live[d0 * rq_count] <= dl. Per
      // dl, the columns that do lie in [d_begin, d_end[dl]).
      const uint8_t* live = j.prev_live + rq;
      size_t first_dl = g_last;
      size_t d_begin = r0;
      uint8_t d_end[256];
      std::fill(d_end, d_end + g_last, uint8_t{0});
      for (size_t d0 = 0; d0 < r0; ++d0) {
        const size_t from = live[d0 * rq_count];
        if (from < g_last) {
          first_dl = std::min(first_dl, from);
          d_begin = std::min(d_begin, d0);
          d_end[from] = static_cast<uint8_t>(d0 + 1);
        }
      }
      for (size_t dl = first_dl + 1; dl < g_last; ++dl) {
        d_end[dl] = std::max(d_end[dl], d_end[dl - 1]);
      }
      for (size_t dl = first_dl; dl < g_last; ++dl) {
        const size_t q = rq * g_last + dl;
        const double* base_col = j.prev_cost + q;
        size_t m = 1;
        if (j.drops) {
          m = PickColumns(
              d_begin, d_end[dl], base_col, j.keep,
              [&](size_t d0) { return live[d0 * rq_count] <= dl; }, digits,
              bases);
        } else {
          bases[0] = base_col[0];
        }
        rows[W - 1] = j.pair + j.pair_off[W - 1] + dl * r_cur;
        const size_t lo = j.band_lo[dl];
        const size_t hi = j.band_hi[dl];
        double* out = j.cur_cost + q * r_cur;
        uint8_t* dr = j.drop + q * r_cur;
        if (j.drops) rows[0] = j.pair + digits[0] * r_cur;
        MergeRows<W, true>(out, dr, rows, bases[0], digits[0], lo, hi);
        for (size_t t = 1; t < m; ++t) {
          rows[0] = j.pair + digits[t] * r_cur;
          MergeRows<W, false>(out, dr, rows, bases[t], digits[t], lo, hi);
        }
        FinishRow(j, q, lo, hi, bases[m - 1], digits[m - 1]);
      }
    }
    j.rq_bits[word] = 0;
  }
}

/// The step kernel per window length w (γ <= 8, so w lies in [1, 8]).
constexpr void (*kRunBiasStep[9])(const StepJob&) = {
    nullptr,         &RunBiasStep<1>, &RunBiasStep<2>,
    &RunBiasStep<3>, &RunBiasStep<4>, &RunBiasStep<5>,
    &RunBiasStep<6>, &RunBiasStep<7>, &RunBiasStep<8>};

/// Fills the pairwise-cost tables (k-major, each T_k laid out [d][c]) of step
/// \p i on their bands, and the last window FEC's per-digit band [lo, hi).
/// Row d of T_k is evaluated only on the candidates at distance 1 .. α from
/// est_j[d]; below lies no finite state, above the cost is 0.0, and rows the
/// kernel reads past their band get that tail as zeros.
void BuildStepTables(const std::vector<FecProfile>& fecs,
                     const std::vector<std::vector<int64_t>>& est,
                     int64_t alpha, size_t i, size_t gamma, double* pair_dst,
                     uint8_t* band_lo, uint8_t* band_hi) {
  const size_t w = std::min(i, gamma);
  const size_t first_fec = i - w;
  const size_t r_cur = est[i].size();
  const int64_t* est_cur = est[i].data();
  double* table = pair_dst;
  for (size_t k = 0; k < w; ++k) {
    const size_t j = first_fec + k;
    const int64_t* est_j = est[j].data();
    const double weight =
        static_cast<double>(fecs[j].member_count + fecs[i].member_count);
    const bool last = k + 1 == w;
    // Only γ = 1 merges the last FEC's rows past their own band.
    const bool zero_tail = !last || gamma == 1;
    // Both band ends rise with d, since est_j rises with d.
    size_t lo = 0;
    size_t hi = 0;
    for (size_t d = 0; d < est[j].size(); ++d) {
      while (lo < r_cur && est_cur[lo] <= est_j[d]) ++lo;
      hi = std::max(hi, lo);
      while (hi < r_cur && est_cur[hi] - est_j[d] < alpha + 1) ++hi;
      double* row = table + d * r_cur;
      for (size_t c = lo; c < hi; ++c) {
        row[c] = BandCost(weight, est_cur[c] - est_j[d], alpha);
      }
      if (zero_tail) std::fill(row + hi, row + r_cur, 0.0);
      if (last) {
        band_lo[d] = static_cast<uint8_t>(lo);
        band_hi[d] = static_cast<uint8_t>(hi);
      }
    }
    table += est[j].size() * r_cur;
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
  if (s.est.size() < n) s.est.resize(n);
  for (size_t i = 0; i < n; ++i) {
    BiasGridInto(fecs[i].max_bias, grid_cap, &s.est[i]);
    for (int64_t& e : s.est[i]) e += fecs[i].support;
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
    for (size_t j = i + 1 - w; j <= i; ++j) states *= s.est[j].size();
    s.state_count[i] = states;
    s.step_offset[i] = backtrack_bytes;
    backtrack_bytes += states;
  }
  if (s.dropped.size() < backtrack_bytes) s.dropped.resize(backtrack_bytes);

  // Each step's pairwise cost tables and bands are built just before the
  // step, into buffers sized for the largest step.
  size_t max_step_doubles = 0;
  size_t max_states = s.state_count[0];
  size_t max_rows = 1;
  for (size_t i = 1; i < n; ++i) {
    const size_t w = std::min(i, gamma);
    size_t step_doubles = 0;
    for (size_t j = i - w; j < i; ++j) {
      step_doubles += s.est[j].size() * s.est[i].size();
    }
    max_step_doubles = std::max(max_step_doubles, step_doubles);
    max_states = std::max(max_states, s.state_count[i]);
    max_rows = std::max(max_rows, s.state_count[i] / s.est[i].size());
  }
  if (s.pair_cost.size() < max_step_doubles) {
    s.pair_cost.resize(max_step_doubles);
  }
  for (std::vector<double>* v : {&s.prev_cost, &s.cur_cost}) {
    if (v->size() < max_states) v->resize(max_states);
  }
  for (std::vector<uint8_t>* v : {&s.prev_live, &s.cur_live}) {
    if (v->size() < max_rows) v->resize(max_rows);
  }
  if (s.rq_bits.size() < max_rows / 64 + 1) s.rq_bits.resize(max_rows / 64 + 1);
  s.band_lo.resize(255);
  s.band_hi.resize(255);

  // Step 0: FEC 0 alone in the window, one live row of zero costs.
  std::fill(s.prev_cost.begin(), s.prev_cost.begin() + s.state_count[0], 0.0);
  s.prev_live[0] = 0;
  s.prev_rows.assign(1, 0);

  for (size_t i = 1; i < n; ++i) {
    const size_t w_prev = std::min(i, gamma);
    const bool drops = w_prev == gamma;
    const size_t first_fec = i - w_prev;
    const size_t prev_states = s.state_count[i - 1];
    const size_t r_cur = s.est[i].size();

    BuildStepTables(fecs, s.est, alpha, i, gamma, s.pair_cost.data(),
                    s.band_lo.data(), s.band_hi.data());

    StepJob job;
    job.prev_cost = s.prev_cost.data();
    job.prev_live = s.prev_live.data();
    job.cur_cost = s.cur_cost.data();
    job.cur_live = s.cur_live.data();
    job.drop = s.dropped.data() + s.step_offset[i];
    job.pair = s.pair_cost.data();
    job.band_lo = s.band_lo.data();
    job.band_hi = s.band_hi.data();
    {
      size_t off = 0;
      for (size_t k = 0; k < w_prev; ++k) {
        job.pair_off[k] = off;
        job.radix[k] = s.est[first_fec + k].size();
        off += job.radix[k] * r_cur;
      }
    }
    job.r_cur = r_cur;
    // Digits kept from the previous window when the oldest drops out.
    job.keep = drops ? prev_states / job.radix[0] : prev_states;
    job.drops = drops;
    job.prev_rows = s.prev_rows.data();
    job.prev_row_count = s.prev_rows.size();
    s.cur_rows.clear();
    job.cur_rows = &s.cur_rows;
    job.rq_bits = s.rq_bits.data();
    kRunBiasStep[w_prev](job);
    std::swap(s.prev_cost, s.cur_cost);
    std::swap(s.prev_live, s.cur_live);
    std::swap(s.prev_rows, s.cur_rows);
    assert(!s.prev_rows.empty());
  }

  // Pick the cheapest final state (ties to the lexicographically smallest,
  // matching the reference's ordered-map sweep) and backtrack.
  const size_t r_last = s.est[n - 1].size();
  size_t best_state = 0;
  double best_cost = kInf;
  for (const uint32_t q : s.prev_rows) {
    for (size_t c = s.prev_live[q]; c < r_last; ++c) {
      if (s.prev_cost[q * r_last + c] < best_cost) {
        best_cost = s.prev_cost[q * r_last + c];
        best_state = q * r_last + c;
      }
    }
  }

  s.choice.assign(n, 0);
  {
    // The final window covers FECs [n - w .. n-1].
    const size_t w = std::min(n, gamma);
    size_t idx = best_state;
    for (size_t pos = n; pos-- > n - w;) {
      s.choice[pos] = static_cast<uint8_t>(idx % s.est[pos].size());
      idx /= s.est[pos].size();
    }
    // Walk back: at step i the stored `dropped` is the choice of FEC i - γ.
    size_t state = best_state;
    for (size_t i = n - 1; i >= gamma; --i) {
      const uint8_t drop = s.dropped[s.step_offset[i] + state];
      s.choice[i - gamma] = drop;
      // Parent state at step i-1: dropped digit prepended, last removed.
      const size_t keep_prev = s.state_count[i - 1] / s.est[i - gamma].size();
      state = static_cast<size_t>(drop) * keep_prev + state / s.est[i].size();
    }
  }

  std::vector<double> biases(n);
  for (size_t i = 0; i < n; ++i) {
    biases[i] = static_cast<double>(s.est[i][s.choice[i]] - fecs[i].support);
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
