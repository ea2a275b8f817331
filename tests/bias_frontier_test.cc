/// \file bias_frontier_test.cc
/// \brief Algorithm 1's flat output-major DP against the map-based oracle:
/// they must agree bit for bit across γ ∈ {1..8}, under a starved state
/// budget, on profiles shaped like the end-to-end workloads' windows, whose
/// wide grids and tied base costs drive the DP's column skip and bands, on
/// the compact rows' edges (rows with and without a tail side by side, an
/// optimum in a first tail slot, a rounding tie that crosses from band
/// columns into tail columns), and on a γ = 1 profile built so that the
/// feasibility bound decides.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/bias_setting.h"
#include "core/fec.h"

namespace butterfly {
namespace {

/// Random strictly-ascending FEC profiles; roughly one in six gets a zero
/// maximum bias so degenerate single-point grids appear in every sweep.
std::vector<FecProfile> RandomProfiles(Rng* rng, size_t n) {
  std::vector<FecProfile> fecs;
  fecs.reserve(n);
  Support t = static_cast<Support>(rng->UniformInt(5, 40));
  for (size_t i = 0; i < n; ++i) {
    double max_bias = rng->UniformInt(0, 5) == 0
                          ? 0.0
                          : MaxAdjustableBias(t, 0.016, 5.0);
    fecs.push_back(
        FecProfile{t, static_cast<size_t>(rng->UniformInt(1, 9)), max_bias});
    t += static_cast<Support>(rng->UniformInt(1, 6));
  }
  return fecs;
}

void ExpectBitIdentical(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << label << " fec " << i;
  }
}

TEST(BiasFrontierTest, FlatMatchesOracleAcrossGammaSweep) {
  BiasDpScratch scratch;
  for (size_t gamma = 1; gamma <= 8; ++gamma) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 131 + gamma);
      const size_t n = static_cast<size_t>(rng.UniformInt(0, 34));
      std::vector<FecProfile> fecs = RandomProfiles(&rng, n);
      const int64_t alpha = rng.UniformInt(1, 12);
      OrderOptConfig opt;
      opt.gamma = gamma;
      const std::string label =
          "γ=" + std::to_string(gamma) + " seed=" + std::to_string(seed);
      std::vector<double> oracle =
          OrderPreservingBiasesReference(fecs, alpha, opt);
      ExpectBitIdentical(OrderPreservingBiases(fecs, alpha, opt, &scratch),
                         oracle, "flat " + label);
    }
  }
}

TEST(BiasFrontierTest, StarvedStateBudgetKeepsFlatAndOracleAligned) {
  // A tiny state budget shrinks the per-FEC grids; both implementations
  // must derive (and search) the same shrunken grids.
  Rng rng(17);
  std::vector<FecProfile> fecs = RandomProfiles(&rng, 28);
  for (size_t gamma : {size_t{2}, size_t{4}, size_t{8}}) {
    OrderOptConfig opt;
    opt.gamma = gamma;
    opt.max_states = 64;
    std::vector<double> oracle = OrderPreservingBiasesReference(fecs, 7, opt);
    ExpectBitIdentical(OrderPreservingBiases(fecs, 7, opt), oracle,
                       "flat starved γ=" + std::to_string(gamma));
  }
}

/// Profiles shaped like the end-to-end workloads' windows at δ = 0.4, K = 5
/// (α = 7, σ² = 5.25). At ε = 0.1 from support 8 with 1–200 members, a
/// dense-lattice window: supports into the thousands, and all but the lowest
/// FECs' grids hold 21 points. At ε = 0.03 from support 15 with 1–30
/// members, a fleet tenant's small window. At ε = 0.016 from support 25 with
/// 1–54 members, a WebScale1M window, whose grids widen only as the supports
/// pass the hundreds.
std::vector<FecProfile> WorkloadProfiles(Rng* rng, size_t n, double epsilon,
                                         Support first, int64_t members) {
  std::vector<FecProfile> fecs;
  fecs.reserve(n);
  Support t = first;
  for (size_t i = 0; i < n; ++i) {
    fecs.push_back(
        FecProfile{t, static_cast<size_t>(rng->UniformInt(1, members)),
                   MaxAdjustableBias(t, epsilon, 5.25)});
    t += static_cast<Support>(rng->UniformInt(1, std::max<Support>(1, t / 8)));
  }
  return fecs;
}

TEST(BiasFrontierTest, WorkloadShapedProfilesMatchOracle) {
  BiasDpScratch scratch;
  struct Shape {
    const char* name;
    double epsilon;
    Support first;
    int64_t members;
  };
  for (const Shape& shape :
       {Shape{"dense", 0.1, 8, 200}, Shape{"fleet", 0.03, 15, 30},
        Shape{"webscale", 0.016, 25, 54}}) {
    for (size_t gamma : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{8}}) {
      // The oracle's maps grow with the state count, which peaks at γ = 4.
      const size_t n = gamma <= 3 ? 120 : 40;
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        Rng rng(seed * 977 + gamma);
        std::vector<FecProfile> fecs = WorkloadProfiles(
            &rng, n, shape.epsilon, shape.first, shape.members);
        // 120 FECs reach supports in the thousands; 40 stop in the hundreds.
        if (n == 120) {
          ASSERT_GT(fecs.back().support, 1000);
        }
        OrderOptConfig opt;
        opt.gamma = gamma;
        const std::string label = std::string(shape.name) +
                                  " γ=" + std::to_string(gamma) +
                                  " seed=" + std::to_string(seed);
        ExpectBitIdentical(OrderPreservingBiases(fecs, 7, opt, &scratch),
                           OrderPreservingBiasesReference(fecs, 7, opt),
                           "workload " + label);
      }
    }
  }
}

TEST(BiasFrontierTest, TiedBaseCostsMatchOracle) {
  // Equal member counts and evenly spaced supports make many candidate
  // windows cost the same, so several dropped-digit columns of one output
  // state tie on base cost and the strict-< tie-break decides. At spacing 4
  // the dropped FEC's band ends inside the band of the FEC after it, so
  // some columns are far from a slot and others near it. At α = 2^24 the
  // costs pass 2^53 and round, so the order in which a total is summed
  // matters.
  BiasDpScratch scratch;
  for (Support spacing : {Support{12}, Support{4}}) {
    std::vector<FecProfile> fecs;
    for (Support t = 100; t < 100 + 60 * spacing; t += spacing) {
      fecs.push_back(FecProfile{t, 5, MaxAdjustableBias(t, 0.016, 5.25)});
    }
    for (size_t gamma : {size_t{1}, size_t{2}, size_t{3}}) {
      for (int64_t alpha :
           {int64_t{3}, int64_t{7}, int64_t{11}, int64_t{1} << 24}) {
        OrderOptConfig opt;
        opt.gamma = gamma;
        ExpectBitIdentical(OrderPreservingBiases(fecs, alpha, opt, &scratch),
                           OrderPreservingBiasesReference(fecs, alpha, opt),
                           "tied spacing=" + std::to_string(spacing) +
                               " γ=" + std::to_string(gamma) +
                               " α=" + std::to_string(alpha));
      }
    }
  }
}

TEST(BiasFrontierTest, RowsWithAndWithoutTailsMatchOracle) {
  // α = 7 and 7-point grids 4 apart: FEC 0's low candidates lie 8 or more
  // below FEC 1's top ones, so their rows over FEC 1 end in a tail, while
  // from FEC 0's estimator 100 on every FEC 1 candidate lies within α and
  // the band reaches the grid's end. The next step reads both kinds of row
  // side by side, as do later ones.
  const std::vector<FecProfile> fecs = {
      {100, 1, 3.0}, {104, 2, 3.0}, {108, 3, 3.0}, {112, 1, 3.0},
      {116, 2, 3.0}, {121, 4, 3.0}};
  for (size_t gamma : {size_t{1}, size_t{2}, size_t{3}}) {
    OrderOptConfig opt;
    opt.gamma = gamma;
    ExpectBitIdentical(OrderPreservingBiases(fecs, 7, opt),
                       OrderPreservingBiasesReference(fecs, 7, opt),
                       "tails γ=" + std::to_string(gamma));
  }
}

TEST(BiasFrontierTest, OptimumInFirstTailSlotMatchesOracle) {
  // FEC 1 is fixed at 107, so FEC 2's row has a one-slot band (114, at
  // distance 7) and a tail from 115 on that costs nothing. Every tail slot
  // ties; the lexicographically first, 115, is the optimum.
  const std::vector<FecProfile> fecs = {
      {100, 5, 3.0}, {107, 5, 0.0}, {120, 1, 6.0}};
  for (size_t gamma : {size_t{1}, size_t{2}}) {
    OrderOptConfig opt;
    opt.gamma = gamma;
    const std::vector<double> oracle =
        OrderPreservingBiasesReference(fecs, 7, opt);
    ExpectBitIdentical(OrderPreservingBiases(fecs, 7, opt), oracle,
                       "first tail γ=" + std::to_string(gamma));
    EXPECT_EQ(oracle, (std::vector<double>{-3, 0, -5}));
  }
}

TEST(BiasFrontierTest, FarTieAcrossTailColumnsMatchesOracle) {
  // γ = 2, α = 2^24, and FEC 1's candidates x = t_1 + k sit 1 apart. In
  // the last step, FEC 2's row reads x = t_1, α + 1 below FEC 2, as a tail
  // column with base 8, and x = t_1 + 1, α below it, as a band column with
  // base 7. Both lie α + 1 or more below FEC 3, so each adds only FEC 2's
  // pair cost 256·α² = 2^56, and both totals round to 2^56: the walk back
  // over the tie crosses from the band column into the tail columns, whose
  // first column with that total is the reference's winner.
  const int64_t alpha = int64_t{1} << 24;
  const std::vector<FecProfile> fecs = {{100, 1, 0.0},
                                        {100 + alpha - 1, 1, 10.0},
                                        {100 + 2 * alpha, 4, 0.0},
                                        {101 + 2 * alpha, 252, 0.0}};
  OrderOptConfig opt;
  opt.gamma = 2;
  const std::vector<double> oracle =
      OrderPreservingBiasesReference(fecs, alpha, opt);
  ExpectBitIdentical(OrderPreservingBiases(fecs, alpha, opt), oracle,
                     "far tie");
  EXPECT_EQ(oracle, (std::vector<double>{0, 0, 0, 0}));
}

TEST(BiasFrontierTest, GammaOneBoundSkipsInfeasibleCheapestColumn) {
  // γ = 1. FEC 0 is heavy and fixed at 100, so FEC 1's cost falls as its
  // estimator rises; FEC 3 is heavy and fixed at 104, which keeps FEC 2 at
  // 102 or 103. There FEC 1's cheapest bases lie at or above FEC 2's
  // estimator, where a light pair's inversion costs less than the base they
  // save, so only the e_1 < e_2 bound keeps FEC 2's slots from taking them.
  // The optimum leaves every estimator at its support.
  const std::vector<FecProfile> fecs = {
      {100, 1000, 0.0}, {101, 1, 10.0}, {102, 1, 10.0}, {104, 1000, 0.0}};
  OrderOptConfig opt;
  opt.gamma = 1;
  const std::vector<double> oracle =
      OrderPreservingBiasesReference(fecs, 7, opt);
  ExpectBitIdentical(OrderPreservingBiases(fecs, 7, opt), oracle, "γ=1");
  EXPECT_EQ(oracle, (std::vector<double>{0, 0, 0, 0}));
}

}  // namespace
}  // namespace butterfly
