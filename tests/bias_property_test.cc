/// Property tests pinning the flat order-preserving DP to the retained
/// map-based reference. They must be bit-identical: the reference is the
/// oracle that proves the flat DP's shortcuts (the dominated-column skip,
/// the compact rows' tails, the one evaluation per band slot) exact.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/bias_setting.h"
#include "core/fec.h"

namespace butterfly {
namespace {

/// Random strictly-ascending FEC profiles. About one in six FECs gets a zero
/// maximum bias (grid collapses to {0}), exercising the degenerate-candidate
/// path on both implementations.
std::vector<FecProfile> RandomProfiles(Rng* rng, size_t n) {
  std::vector<FecProfile> fecs;
  fecs.reserve(n);
  Support t = static_cast<Support>(rng->UniformInt(5, 40));
  for (size_t i = 0; i < n; ++i) {
    double max_bias = rng->UniformInt(0, 5) == 0
                          ? 0.0
                          : MaxAdjustableBias(t, 0.016, 5.0);
    fecs.push_back(FecProfile{t, static_cast<size_t>(rng->UniformInt(1, 9)),
                              max_bias});
    t += static_cast<Support>(rng->UniformInt(1, 6));
  }
  return fecs;
}

TEST(BiasDpPropertyTest, FlatMatchesReferenceAcrossRandomProfiles) {
  BiasDpScratch scratch;  // deliberately reused across every round
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 40));
    std::vector<FecProfile> fecs = RandomProfiles(&rng, n);
    const int64_t alpha = rng.UniformInt(1, 12);
    for (size_t gamma : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
      OrderOptConfig opt;
      opt.gamma = gamma;
      std::vector<double> flat =
          OrderPreservingBiases(fecs, alpha, opt, &scratch);
      std::vector<double> ref =
          OrderPreservingBiasesReference(fecs, alpha, opt);
      ASSERT_EQ(flat.size(), ref.size()) << "seed " << seed << " γ " << gamma;
      for (size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(flat[i], ref[i])
            << "seed " << seed << " γ " << gamma << " fec " << i;
      }
    }
  }
}

TEST(BiasDpPropertyTest, ScratchReuseMatchesScratchFree) {
  // A dirty scratch (left over from a larger problem) must not leak state
  // into a smaller one.
  BiasDpScratch scratch;
  Rng rng(99);
  OrderOptConfig opt;
  opt.gamma = 3;
  std::vector<FecProfile> big = RandomProfiles(&rng, 60);
  OrderPreservingBiases(big, 9, opt, &scratch);  // populate the buffers
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{23}}) {
    std::vector<FecProfile> fecs = RandomProfiles(&rng, n);
    EXPECT_EQ(OrderPreservingBiases(fecs, 9, opt, &scratch),
              OrderPreservingBiases(fecs, 9, opt))
        << "n = " << n;
  }
}

TEST(BiasDpPropertyTest, TinyStateBudgetStillMatchesReference) {
  // A starved state budget shrinks the grids; both implementations must
  // shrink them the same way.
  Rng rng(7);
  std::vector<FecProfile> fecs = RandomProfiles(&rng, 30);
  OrderOptConfig opt;
  opt.gamma = 4;
  opt.max_states = 64;
  EXPECT_EQ(OrderPreservingBiases(fecs, 7, opt),
            OrderPreservingBiasesReference(fecs, 7, opt));
}

}  // namespace
}  // namespace butterfly
