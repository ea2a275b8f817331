/// \file bias_frontier_test.cc
/// \brief Frontier equivalence for Algorithm 1: the flat output-major DP and
/// the map-based oracle must agree bit for bit across γ ∈ {1..8}, and under a
/// starved state budget.

#include <cstdint>
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

}  // namespace
}  // namespace butterfly
