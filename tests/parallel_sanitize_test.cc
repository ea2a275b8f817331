/// \file parallel_sanitize_test.cc
/// \brief The reproducibility contract of the release path: for every
/// scheme, with and without the republish cache, the release is
/// byte-identical across thread counts {1, 2, 8} and across repeated runs
/// with the same seed — noise comes from counter-based per-itemset streams,
/// never from shared sequential generator state.

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/butterfly.h"
#include "datagen/profiles.h"
#include "moment/moment.h"

namespace butterfly {
namespace {

ButterflyConfig MakeConfig(ButterflyScheme scheme, bool republish,
                           int64_t threads) {
  ButterflyConfig config;
  config.epsilon = 0.016;
  config.delta = 0.4;
  config.min_support = 25;
  config.vulnerable_support = 5;
  config.scheme = scheme;
  config.lambda = 0.4;
  config.republish_cache = republish;
  config.threads = threads;
  config.seed = 0x5eed;
  return config;
}

/// A short trace of real mined windows so the republish cache sees both
/// unchanged and drifting supports across consecutive releases.
const std::vector<MiningOutput>& Trace() {
  static const std::vector<MiningOutput> trace = [] {
    auto data = *GenerateProfile(DatasetProfile::kBmsWebView1, 640, 7);
    MomentMiner miner(600, 12);
    std::vector<MiningOutput> out;
    size_t fed = 0;
    for (const Transaction& t : data) {
      miner.Append(t);
      if (++fed >= 600 && fed % 10 == 0) out.push_back(miner.GetAllFrequent());
    }
    return out;
  }();
  return trace;
}

/// Replays the trace through a fresh engine and returns every release.
std::vector<SanitizedOutput> Replay(const ButterflyConfig& config) {
  ButterflyEngine engine(config);
  std::vector<SanitizedOutput> releases;
  for (const MiningOutput& raw : Trace()) {
    releases.push_back(engine.Sanitize(raw, 600));
  }
  return releases;
}

void ExpectIdentical(const std::vector<SanitizedOutput>& a,
                     const std::vector<SanitizedOutput>& b,
                     const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t w = 0; w < a.size(); ++w) {
    ASSERT_EQ(a[w].items().size(), b[w].items().size())
        << label << " window " << w;
    EXPECT_EQ(a[w].items(), b[w].items()) << label << " window " << w;
  }
}

class ParallelSanitizeTest
    : public ::testing::TestWithParam<std::tuple<ButterflyScheme, bool>> {};

TEST_P(ParallelSanitizeTest, BitIdenticalAcrossThreadCounts) {
  auto [scheme, republish] = GetParam();
  ASSERT_FALSE(Trace().empty());
  std::vector<SanitizedOutput> serial = Replay(MakeConfig(scheme, republish, 1));
  for (int64_t threads : {2, 8}) {
    std::vector<SanitizedOutput> parallel =
        Replay(MakeConfig(scheme, republish, threads));
    ExpectIdentical(serial, parallel,
                    SchemeName(scheme) + (republish ? "+cache" : "") + " @" +
                        std::to_string(threads) + " threads");
  }
}

TEST_P(ParallelSanitizeTest, BitIdenticalAcrossRepeatedRunsSameSeed) {
  auto [scheme, republish] = GetParam();
  for (int64_t threads : {1, 2, 8}) {
    std::vector<SanitizedOutput> first =
        Replay(MakeConfig(scheme, republish, threads));
    std::vector<SanitizedOutput> second =
        Replay(MakeConfig(scheme, republish, threads));
    ExpectIdentical(first, second,
                    SchemeName(scheme) + " rerun @" + std::to_string(threads));
  }
}

TEST_P(ParallelSanitizeTest, DifferentSeedsDiverge) {
  auto [scheme, republish] = GetParam();
  ButterflyConfig config = MakeConfig(scheme, republish, 2);
  std::vector<SanitizedOutput> a = Replay(config);
  config.seed = 0x0ddba11;
  std::vector<SanitizedOutput> b = Replay(config);
  bool any_difference = false;
  for (size_t w = 0; w < a.size() && !any_difference; ++w) {
    any_difference = !(a[w].items() == b[w].items());
  }
  EXPECT_TRUE(any_difference) << SchemeName(scheme);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ParallelSanitizeTest,
    ::testing::Combine(::testing::Values(ButterflyScheme::kBasic,
                                         ButterflyScheme::kOrderPreserving,
                                         ButterflyScheme::kRatioPreserving,
                                         ButterflyScheme::kHybrid),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ButterflyScheme, bool>>&
           param_info) {
      std::string name = SchemeName(std::get<0>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(param_info.param) ? "_republish" : "_nocache");
    });

/// Release content must not depend on the input's order: feeding the same
/// window, unsealed, in two insertion orders yields the same release. The
/// noise pass visits the backward input out of order, and the seal sorts it.
TEST(ParallelSanitizeOrderTest, InsertionOrderIrrelevant) {
  MiningOutput forward(25), backward(25);
  std::vector<std::pair<Itemset, Support>> rows = {
      {Itemset{1}, 120}, {Itemset{2}, 80},    {Itemset{3}, 80},
      {Itemset{1, 2}, 45}, {Itemset{1, 3}, 44}, {Itemset{2, 3}, 31},
      {Itemset{1, 2, 3}, 25}, {Itemset{4}, 25}};
  for (const auto& [itemset, support] : rows) forward.Add(itemset, support);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    backward.Add(it->first, it->second);
  }

  for (ButterflyScheme scheme :
       {ButterflyScheme::kBasic, ButterflyScheme::kHybrid}) {
    ButterflyEngine a(MakeConfig(scheme, false, 1));
    ButterflyEngine b(MakeConfig(scheme, false, 1));
    EXPECT_EQ(a.Sanitize(forward, 2000).items(),
              b.Sanitize(backward, 2000).items())
        << SchemeName(scheme);
  }
}

}  // namespace
}  // namespace butterfly
