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
  // Candidate indices and band ends are bytes (the reference packs index + 1
  // into a key byte; the flat DP stores digits and band ends in bytes), so a
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
// Compact rows. Step i's state (q, c) is a surviving window q (the digits of
// every window FEC but the entering one) and the entering FEC's candidate c.
// Row q stores only its extent: one cost and one backtrack byte per slot of
// its band [lo, hi), then, if hi < r, a single tail slot at hi that stands
// for every c in [hi, r). A row's band is that of its class, q % classes:
// the digit of q's last FEC, or 0 while γ = 1 leaves q empty. Why the tail
// is one value and the kernel's other shortcuts are exact:
// OrderPreservingBiases in bias_setting.h.
// ---------------------------------------------------------------------------

/// One step's rows, as the next step reads them.
struct StepRows {
  const double* cost = nullptr;   ///< row q's extent at cost + q * stride
  const uint8_t* live = nullptr;  ///< per row: 1 if its states are finite
  const uint8_t* lo = nullptr;    ///< per class: first band slot
  const uint8_t* hi = nullptr;    ///< per class: band end, the tail slot
  size_t classes = 1;
  size_t stride = 1;
  size_t r = 1;                   ///< grid size of the step's last FEC
};

/// Everything one step needs, by value or raw pointer into the scratch.
struct StepJob {
  StepRows prev;                    ///< step i − 1's rows
  double* cost = nullptr;           ///< step i's rows, at `stride`
  uint8_t* live = nullptr;          ///< per output row: 1 once written
  uint8_t* drop = nullptr;          ///< backtrack bytes, laid out as `cost`
  uint8_t* lo = nullptr;            ///< step i's bands per class
  uint8_t* hi = nullptr;
  size_t stride = 0;
  const int64_t* est_cur = nullptr;  ///< the entering FEC's estimators
  const int64_t* est[8] = {};        ///< per window position
  double weight[8] = {};             ///< per window position: s_j + s_i
  size_t radix[8] = {};              ///< grid sizes of the window's FECs
  size_t r_cur = 0;                  ///< grid size of the entering FEC
  size_t keep = 0;                   ///< output rows (the q axis)
  int64_t alpha = 0;
  bool drops = false;                ///< window full: oldest FEC leaves
  const uint32_t* prev_rows = nullptr;  ///< the previous step's live rows
  size_t prev_row_count = 0;
  std::vector<uint32_t>* cur_rows = nullptr;  ///< receives the live rows
  uint64_t* rq_bits = nullptr;  ///< bitmap over rq, zero on entry and exit
};

/// The columns that can win an output row's slots, in ascending d0 with
/// strictly falling bases: `ka` tail columns, far from every slot of the
/// row, then `kb` band columns with their dropped FEC's estimators.
struct Columns {
  const uint8_t* a_digit;
  const double* a_base;
  size_t ka;
  const uint8_t* b_digit;
  const double* b_base;
  const int64_t* b_est;
  size_t kb;

  double base(size_t t) const { return t < ka ? a_base[t] : b_base[t - ka]; }
  uint8_t digit(size_t t) const {
    return t < ka ? a_digit[t] : b_digit[t - ka];
  }
};

// Writes output row q: each band slot c in [lo, hi) gets the smallest total
// over the columns and the first column that reaches it, as the reference's
// strict-< sweep in ascending d0 keeps; the tail slot gets the last column's
// base and digit. The kept window FECs' pair costs are computed in place and
// summed in window order, so every total is the reference's double.
template <size_t W>
void EmitRow(const StepJob& j, size_t q, size_t lo, size_t hi,
             const Columns& columns, const int64_t (&kept)[W]) {
  // Local copies: the byte stores through `dr` may alias anything, so every
  // field read through a reference would be reloaded after each store.
  const Columns col = columns;
  const int64_t alpha = j.alpha;
  const bool drops = j.drops;
  const size_t first_pos = drops ? 1 : 0;
  const int64_t* est_cur = j.est_cur;
  double weight[W];
  for (size_t k = 0; k < W; ++k) weight[k] = j.weight[k];
  double* out = j.cost + q * j.stride;
  uint8_t* dr = j.drop + q * j.stride;
  // The kept FECs far from the band's first candidate are far from all of
  // them and add 0.0; leading zeros leave every sum's bits unchanged, so the
  // sums start at k_near. The last kept FEC is near across its band.
  size_t k_near = first_pos;
  while (k_near + 1 < W && est_cur[lo] - kept[k_near] > alpha) ++k_near;
  double term[W] = {};  // the kept FECs' pair costs with c; 0.0 before k_near
  size_t f = 0;  // band columns far from c: their pair cost with c is 0.0
  size_t g = 0;  // band columns below c
  for (size_t c = lo; c < hi; ++c) {
    const int64_t ec = est_cur[c];
    double kept_sum = 0.0;
    for (size_t k = k_near; k < W; ++k) {
      // PairCost without a branch: the band cost's bits, or those of 0.0
      // once the distance passes α.
      const int64_t d = ec - kept[k];
      const uint64_t near = uint64_t{0} - uint64_t{d <= alpha};
      term[k] = std::bit_cast<double>(
          std::bit_cast<uint64_t>(BandCost(weight[k], d, alpha)) & near);
      kept_sum = k == k_near ? term[k] : kept_sum + term[k];
    }
    if (!drops) {
      f = g = col.kb;
    } else {
      while (f < col.kb && ec - col.b_est[f] > alpha) ++f;
      g = col.kb;
      if (W == 1) {
        // Only γ = 1's columns can lie at or above c: for W >= 2 the
        // dropped FEC lies below the window's last, which lies below c.
        g = f;
        while (g < col.kb && ec > col.b_est[g]) ++g;
      }
    }
    // Far totals base + ((0.0 + T₁) + …) fall with the base, so the last far
    // column is the smallest; the first column it ties with is the winner.
    double best = kInf;
    size_t arg = 0;
    if (const size_t far = col.ka + f; far > 0) {
      arg = far - 1;
      best = col.base(arg) + kept_sum;
      while (arg > 0 && col.base(arg - 1) + kept_sum == best) --arg;
    }
    for (size_t u = f; u < g; ++u) {
      double sum = BandCost(weight[0], ec - col.b_est[u], alpha);
      for (size_t k = 1; k < W; ++k) sum += term[k];
      const double total = col.b_base[u] + sum;
      if (total < best) {
        best = total;
        arg = col.ka + u;
      }
    }
    out[c - lo] = best;
    dr[c - lo] = col.digit(arg);
  }
  if (hi < j.r_cur) {
    const size_t last = col.ka + col.kb - 1;
    out[hi - lo] = col.base(last);
    dr[hi - lo] = col.digit(last);
  }
  j.live[q] = 1;
  j.cur_rows->push_back(static_cast<uint32_t>(q));
}

// ---------------------------------------------------------------------------
// Output-major step kernel. One DP step maps previous states p to output
// slots (q, c) where q = p % keep is the part of the window that survives and
// d0 = p / keep is the dropped digit; q = rq * g_last + dl, where dl is the
// digit of the previous step's last FEC and rq the surviving digits before
// it. Column d0 of q is previous row (d0, rq) read at slot dl: its band value
// if dl lies in that row's band, its tail past the band. Only live rq are
// visited, those whose previous rows the previous step listed.
// ---------------------------------------------------------------------------

template <size_t W>
void RunBiasStep(const StepJob& job) {
  // A local copy: the byte stores below could otherwise alias its fields.
  const StepJob j = job;
  const StepRows& p = j.prev;
  std::fill(j.live, j.live + j.keep, uint8_t{0});
  uint8_t a_digit[256];
  double a_base[256];
  uint8_t b_digit[256];
  double b_base[256];
  int64_t b_est[256];
  int64_t kept[W] = {};
  if (W == 1 && j.drops) {
    // γ = 1: q is empty and column d0 is the dropped FEC's own candidate, a
    // slot of the one previous row: its band run, then its tail, which only
    // d0 = hi can take (a later d0's equal base is not strictly below).
    const size_t plo = p.lo[0];
    const size_t phi = p.hi[0];
    size_t kb = 0;
    double floor = kInf;
    for (size_t d0 = plo; d0 < std::min(phi + 1, p.r); ++d0) {
      const double v = p.cost[d0 - plo];
      if (v < floor) {
        b_digit[kb] = static_cast<uint8_t>(d0);
        b_base[kb] = v;
        b_est[kb] = j.est[0][d0];
        floor = v;
        ++kb;
      }
    }
    // The row's band runs from the first column's first feasible slot to
    // where the last column's pair cost reaches 0.0.
    size_t lo = 0;
    while (lo < j.r_cur && j.est_cur[lo] <= b_est[0]) ++lo;
    size_t hi = lo;
    while (hi < j.r_cur && j.est_cur[hi] - b_est[kb - 1] < j.alpha + 1) ++hi;
    j.lo[0] = static_cast<uint8_t>(lo);
    j.hi[0] = static_cast<uint8_t>(hi);
    EmitRow<W>(j, 0, lo, hi,
               Columns{a_digit, a_base, 0, b_digit, b_base, b_est, kb}, kept);
    return;
  }
  const size_t g_last = j.radix[W - 1];
  const size_t rq_count = j.keep / g_last;
  const size_t first_pos = j.drops ? 1 : 0;
  const size_t r0 = j.drops ? j.radix[0] : 1;
  // Output rows from dl_end on have no candidate above dl's estimator (the
  // band starts rise with dl).
  size_t dl_end = g_last;
  while (dl_end > 0 && j.lo[dl_end - 1] == j.r_cur) --dl_end;
  // Rows number at most kMaxOrderStates, so the digit arithmetic divides
  // 32-bit values, which is faster than 64-bit division.
  const uint32_t rq_count32 = static_cast<uint32_t>(rq_count);
  for (size_t r = 0; r < j.prev_row_count; ++r) {
    const uint32_t rq = j.prev_rows[r] % rq_count32;
    j.rq_bits[rq / 64] |= uint64_t{1} << (rq % 64);
  }
  // Previous row (d0, rq) is d0 * rq_count + rq, and its class is its last
  // digit: d0 itself when rq is empty and d0 drops (W = 2), else rq's last
  // digit (or 0) for every d0. So the class is cls0 + d0 * cls_step.
  const size_t cls_step = W == 2 && j.drops ? 1 : 0;
  for (size_t word = 0; word * 64 < rq_count; ++word) {
    for (uint64_t bits = j.rq_bits[word]; bits != 0; bits &= bits - 1) {
      const size_t rq = word * 64 + static_cast<size_t>(std::countr_zero(bits));
      size_t cls0 = 0;
      uint32_t rest = static_cast<uint32_t>(rq);
      for (size_t k = W - 1; k-- > first_pos;) {
        const uint32_t radix = static_cast<uint32_t>(j.radix[k]);
        const uint32_t digit = rest % radix;
        if (k == W - 2) cls0 = digit;
        kept[k] = j.est[k][digit];
        rest /= radix;
      }
      // The strict prefix minima, in ascending d0, of the live rows' tails;
      // and the first live row's band start, the first dl any column has.
      size_t ka_all = 0;
      double floor = kInf;
      size_t dl_begin = g_last;
      for (size_t d0 = 0; d0 < r0; ++d0) {
        const size_t row = d0 * rq_count + rq;
        const size_t cls = cls0 + d0 * cls_step;
        if (!p.live[row]) continue;
        dl_begin = std::min<size_t>(dl_begin, p.lo[cls]);
        if (p.hi[cls] == p.r) continue;
        const double v = p.cost[row * p.stride + p.hi[cls] - p.lo[cls]];
        if (v < floor) {
          a_digit[ka_all] = static_cast<uint8_t>(d0);
          a_base[ka_all] = v;
          floor = v;
          ++ka_all;
        }
      }
      // The rows' bands rise with d0, so dl's columns are the tails of
      // d0 < a, then the band values of d0 in [a, b), then nothing.
      size_t a = 0;
      size_t b = 0;
      size_t ka = 0;
      for (size_t dl = dl_begin; dl < dl_end; ++dl) {
        while (a < r0 && p.hi[cls0 + a * cls_step] <= dl) ++a;
        while (b < r0 && p.lo[cls0 + b * cls_step] <= dl) ++b;
        while (ka < ka_all && a_digit[ka] < a) ++ka;
        size_t kb = 0;
        floor = ka > 0 ? a_base[ka - 1] : kInf;
        for (size_t d0 = a; d0 < b; ++d0) {
          const size_t row = d0 * rq_count + rq;
          if (!p.live[row]) continue;
          const size_t cls = cls0 + d0 * cls_step;
          const double v = p.cost[row * p.stride + dl - p.lo[cls]];
          if (v < floor) {
            b_digit[kb] = static_cast<uint8_t>(d0);
            b_base[kb] = v;
            b_est[kb] = j.drops ? j.est[0][d0] : 0;
            floor = v;
            ++kb;
          }
        }
        if (ka + kb == 0) continue;
        kept[W - 1] = j.est[W - 1][dl];
        EmitRow<W>(j, rq * g_last + dl, j.lo[dl], j.hi[dl],
                   Columns{a_digit, a_base, ka, b_digit, b_base, b_est, kb},
                   kept);
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

  // Step i's rows are the mixed-radix windows of its FECs but the last (most
  // significant digit = earliest FEC, so ascending row then ascending c is
  // lexicographic window order). With max_states at most kMaxOrderStates,
  // DeriveGridCap keeps every step at or below that many states. Its band
  // classes are the previous FEC's digits, or one class while γ = 1 keeps no
  // digit in q.
  s.steps.assign(n, BiasDpScratch::Step{});
  size_t band_entries = 0;
  for (size_t i = 0; i < n; ++i) {
    BiasDpScratch::Step& st = s.steps[i];
    st.rows = 1;
    for (size_t j = i + 1 - std::min(i + 1, gamma); j < i; ++j) {
      st.rows *= s.est[j].size();
    }
    st.classes = i == 0 || gamma == 1 ? 1 : s.est[i - 1].size();
    st.band = band_entries;
    band_entries += st.classes;
  }
  if (s.band_lo.size() < band_entries) {
    s.band_lo.resize(band_entries);
    s.band_hi.resize(band_entries);
  }
  // Each class's band: the candidates at distance 1 .. α above that digit's
  // estimator. Both ends rise with the digit. γ = 1's kernel sets its own.
  s.band_lo[0] = 0;
  s.band_hi[0] = 0;
  s.steps[0].stride = 1;
  size_t backtrack_bytes = 0;
  size_t max_cost = 1;
  size_t max_rows = 1;
  for (size_t i = 1; i < n; ++i) {
    BiasDpScratch::Step& st = s.steps[i];
    const int64_t* est_cur = s.est[i].data();
    const size_t r_cur = s.est[i].size();
    st.stride = r_cur;
    if (gamma > 1) {
      st.stride = 0;
      size_t lo = 0;
      size_t hi = 0;
      for (size_t d = 0; d < st.classes; ++d) {
        const int64_t e = s.est[i - 1][d];
        while (lo < r_cur && est_cur[lo] <= e) ++lo;
        hi = std::max(hi, lo);
        while (hi < r_cur && est_cur[hi] - e < alpha + 1) ++hi;
        s.band_lo[st.band + d] = static_cast<uint8_t>(lo);
        s.band_hi[st.band + d] = static_cast<uint8_t>(hi);
        st.stride = std::max(st.stride, hi - lo + (hi < r_cur ? 1 : 0));
      }
    }
    st.dropped = backtrack_bytes;
    backtrack_bytes += st.rows * st.stride;
    max_cost = std::max(max_cost, st.rows * st.stride);
    max_rows = std::max(max_rows, st.rows);
  }
  if (s.dropped.size() < backtrack_bytes) s.dropped.resize(backtrack_bytes);
  for (std::vector<double>* v : {&s.prev_cost, &s.cur_cost}) {
    if (v->size() < max_cost) v->resize(max_cost);
  }
  for (std::vector<uint8_t>* v : {&s.prev_live, &s.cur_live}) {
    if (v->size() < max_rows) v->resize(max_rows);
  }
  if (s.rq_bits.size() < max_rows / 64 + 1) s.rq_bits.resize(max_rows / 64 + 1);

  // Step 0: FEC 0 alone in the window, one live row whose every slot is the
  // tail 0.0.
  s.prev_cost[0] = 0.0;
  s.prev_live[0] = 1;
  s.prev_rows.assign(1, 0);

  for (size_t i = 1; i < n; ++i) {
    const size_t w_prev = std::min(i, gamma);
    const size_t first_fec = i - w_prev;
    const BiasDpScratch::Step& sp = s.steps[i - 1];
    const BiasDpScratch::Step& st = s.steps[i];

    StepJob job;
    job.prev = StepRows{s.prev_cost.data(),      s.prev_live.data(),
                        s.band_lo.data() + sp.band, s.band_hi.data() + sp.band,
                        sp.classes,              sp.stride,
                        s.est[i - 1].size()};
    job.cost = s.cur_cost.data();
    job.live = s.cur_live.data();
    job.drop = s.dropped.data() + st.dropped;
    job.lo = s.band_lo.data() + st.band;
    job.hi = s.band_hi.data() + st.band;
    job.stride = st.stride;
    job.est_cur = s.est[i].data();
    for (size_t k = 0; k < w_prev; ++k) {
      const size_t j = first_fec + k;
      job.est[k] = s.est[j].data();
      job.weight[k] =
          static_cast<double>(fecs[j].member_count + fecs[i].member_count);
      job.radix[k] = s.est[j].size();
    }
    job.r_cur = s.est[i].size();
    job.keep = st.rows;
    job.alpha = alpha;
    job.drops = w_prev == gamma;
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
  // matching the reference's ordered-map sweep): each live row's band, then
  // its tail at c = hi, the first of the equal tail slots.
  const BiasDpScratch::Step& last = s.steps[n - 1];
  const size_t r_last = s.est[n - 1].size();
  size_t best_state = 0;
  double best_cost = kInf;
  for (const uint32_t q : s.prev_rows) {
    const size_t lo = s.band_lo[last.band + q % last.classes];
    const size_t hi = s.band_hi[last.band + q % last.classes];
    const double* row = s.prev_cost.data() + q * last.stride;
    for (size_t c = lo; c < std::min(hi + 1, r_last); ++c) {
      if (row[c - lo] < best_cost) {
        best_cost = row[c - lo];
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
    // State (q, c)'s byte is its band byte below hi, the tail's from hi on.
    size_t state = best_state;
    for (size_t i = n - 1; i >= gamma; --i) {
      const BiasDpScratch::Step& st = s.steps[i];
      const size_t q = state / s.est[i].size();
      const size_t c = state % s.est[i].size();
      const size_t lo = s.band_lo[st.band + q % st.classes];
      const size_t hi = s.band_hi[st.band + q % st.classes];
      const uint8_t drop =
          s.dropped[st.dropped + q * st.stride + std::min(c, hi) - lo];
      s.choice[i - gamma] = drop;
      // Parent state at step i-1: dropped digit prepended, last removed.
      state = static_cast<size_t>(drop) * st.rows + q;
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
