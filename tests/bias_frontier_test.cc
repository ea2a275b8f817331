/// \file bias_frontier_test.cc
/// \brief Algorithm 1's flat output-major DP against the map-based oracle:
/// they must agree bit for bit across γ ∈ {1..8}, under a starved state
/// budget, and on profiles shaped like the end-to-end workloads' windows,
/// whose wide grids and tied base costs drive the DP's column skip.

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

/// Profiles shaped like a dense-lattice window at ε = 0.1, δ = 0.4, K = 5
/// (α = 7, σ² = 5.25): supports from 8 into the thousands, 1–200 members
/// each, so all but the lowest FECs' grids hold 21 points.
std::vector<FecProfile> WorkloadProfiles(Rng* rng, size_t n) {
  std::vector<FecProfile> fecs;
  fecs.reserve(n);
  Support t = 8;
  for (size_t i = 0; i < n; ++i) {
    fecs.push_back(FecProfile{t, static_cast<size_t>(rng->UniformInt(1, 200)),
                              MaxAdjustableBias(t, 0.1, 5.25)});
    t += static_cast<Support>(rng->UniformInt(1, std::max<Support>(1, t / 8)));
  }
  return fecs;
}

TEST(BiasFrontierTest, WorkloadShapedProfilesMatchOracle) {
  BiasDpScratch scratch;
  for (size_t gamma : {size_t{1}, size_t{2}, size_t{3}}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(seed * 977 + gamma);
      std::vector<FecProfile> fecs = WorkloadProfiles(&rng, 120);
      ASSERT_GT(fecs.back().support, 1000);
      OrderOptConfig opt;
      opt.gamma = gamma;
      const std::string label =
          "γ=" + std::to_string(gamma) + " seed=" + std::to_string(seed);
      ExpectBitIdentical(OrderPreservingBiases(fecs, 7, opt, &scratch),
                         OrderPreservingBiasesReference(fecs, 7, opt),
                         "workload " + label);
    }
  }
}

TEST(BiasFrontierTest, TiedBaseCostsMatchOracle) {
  // Equal member counts and evenly spaced supports make many candidate
  // windows cost the same, so several dropped-digit columns of one output
  // state tie on base cost and the strict-< tie-break decides.
  std::vector<FecProfile> fecs;
  for (Support t = 100; t < 100 + 60 * 12; t += 12) {
    fecs.push_back(FecProfile{t, 5, MaxAdjustableBias(t, 0.016, 5.25)});
  }
  BiasDpScratch scratch;
  for (size_t gamma : {size_t{1}, size_t{2}, size_t{3}}) {
    for (int64_t alpha : {int64_t{3}, int64_t{7}, int64_t{11}}) {
      OrderOptConfig opt;
      opt.gamma = gamma;
      ExpectBitIdentical(OrderPreservingBiases(fecs, alpha, opt, &scratch),
                         OrderPreservingBiasesReference(fecs, alpha, opt),
                         "tied γ=" + std::to_string(gamma) +
                             " α=" + std::to_string(alpha));
    }
  }
}

}  // namespace
}  // namespace butterfly
