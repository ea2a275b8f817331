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

/// Release content must not depend on FEC iteration order: feeding the same
/// window to engines whose inputs were built in different insertion orders
/// yields the same release (the itemset-keyed streams ignore order).
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
  forward.Seal();
  backward.Seal();

  for (ButterflyScheme scheme :
       {ButterflyScheme::kBasic, ButterflyScheme::kHybrid}) {
    ButterflyEngine a(MakeConfig(scheme, false, 1));
    ButterflyEngine b(MakeConfig(scheme, false, 1));
    EXPECT_EQ(a.Sanitize(forward, 2000).items(),
              b.Sanitize(backward, 2000).items())
        << SchemeName(scheme);
  }
}

/// The cross-window DP memo is a pure latency optimization: releases with
/// the memo on must be bit-identical to releases with it off, for the DP
/// schemes, at every thread count. The previous-window bias cache is turned
/// off so every window actually consults the memo.
TEST(ParallelSanitizeMemoTest, MemoOnOffBitIdenticalAcrossThreads) {
  for (ButterflyScheme scheme :
       {ButterflyScheme::kOrderPreserving, ButterflyScheme::kHybrid}) {
    ButterflyConfig no_memo = MakeConfig(scheme, false, 1);
    no_memo.cache_bias_settings = false;
    no_memo.bias_memo_capacity = 0;
    std::vector<SanitizedOutput> cold = Replay(no_memo);
    for (int64_t threads : {1, 2, 8}) {
      ButterflyConfig with_memo = MakeConfig(scheme, false, threads);
      with_memo.cache_bias_settings = false;
      with_memo.bias_memo_capacity = 128;
      ExpectIdentical(cold, Replay(with_memo),
                      SchemeName(scheme) + "+memo @" +
                          std::to_string(threads) + " threads");
    }
  }
}

/// Guaranteed memo *hits* stay identical too: replay the trace twice through
/// one engine — every second-pass window hits the memo (its profile vector
/// was stored on the first pass) — and compare against a memo-free engine
/// fed the same call sequence.
TEST(ParallelSanitizeMemoTest, MemoHitsBitIdenticalAcrossThreads) {
  for (int64_t threads : {1, 2, 8}) {
    ButterflyConfig memo_config = MakeConfig(
        ButterflyScheme::kOrderPreserving, false, threads);
    memo_config.cache_bias_settings = false;
    ButterflyConfig cold_config = memo_config;
    cold_config.bias_memo_capacity = 0;
    ButterflyEngine with_memo(memo_config), without_memo(cold_config);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t w = 0; w < Trace().size(); ++w) {
        SanitizedOutput a = with_memo.Sanitize(Trace()[w], 600);
        SanitizedOutput b = without_memo.Sanitize(Trace()[w], 600);
        EXPECT_EQ(a.items(), b.items())
            << "pass " << pass << " window " << w << " @" << threads;
      }
    }
    EXPECT_GE(with_memo.bias_memo_hits(), Trace().size())
        << "second pass should be all memo hits @" << threads;
    EXPECT_EQ(without_memo.bias_memo_hits(), 0u);
  }
}

}  // namespace
}  // namespace butterfly
