/// \file release_golden_test.cc
/// \brief Absolute release bytes, pinned. The other release tests compare
/// two code paths of one build with each other, so a change that alters the
/// bytes the same way on every path passes all of them. This test replays a
/// fixed BMS-WebView-1 stream through StreamPrivacyEngine under every scheme
/// (republish cache on), and under the order-preserving scheme also at
/// γ = 1, 4 and 8, at threads=1 and threads=4, and compares an FNV-1a
/// digest of each WriteRelease log against a recorded constant. The window
/// holds enough FECs that the Algorithm 1 DP runs full γ-windows over
/// multi-point bias grids. Re-record a constant only for a deliberate change
/// to the released values. The replay also checks each release's stats
/// against its output and against a from-scratch partition of RawOutput().

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/release_log.h"
#include "core/stream_engine.h"
#include "datagen/profiles.h"

namespace butterfly {
namespace {

constexpr size_t kWindow = 2000;
constexpr size_t kStride = 25;
constexpr size_t kReleases = 12;
constexpr size_t kMinFecs = 50;

ButterflyConfig GoldenConfig(ButterflyScheme scheme, size_t gamma,
                             int64_t threads) {
  ButterflyConfig config;
  config.epsilon = 0.016;
  config.delta = 0.4;
  config.min_support = 12;
  config.vulnerable_support = 3;
  config.scheme = scheme;
  config.order_opt.gamma = gamma;
  config.lambda = 0.4;
  config.republish_cache = true;
  config.threads = threads;
  config.seed = 0x601d;
  return config;
}

const std::vector<Transaction>& Stream() {
  static const std::vector<Transaction> data = *GenerateProfile(
      DatasetProfile::kBmsWebView1, kWindow + (kReleases - 1) * kStride, 7);
  return data;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Replay {
  uint64_t digest = 0;
  size_t releases = 0;
  size_t min_fecs = SIZE_MAX;
  bool any_bias = false;  ///< some released itemset carries a nonzero bias
};

Replay ReplayStream(const ButterflyConfig& config) {
  StreamPrivacyEngine engine(kWindow, config);
  std::ostringstream log;
  Replay replay;
  size_t fed = 0;
  for (const Transaction& t : Stream()) {
    engine.Append(t);
    if (++fed < kWindow || (fed - kWindow) % kStride != 0) continue;
    ReleaseResult result = engine.Release();
    std::string label = "w";
    label += std::to_string(replay.releases);
    EXPECT_TRUE(WriteRelease(&log, label, result.output).ok());
    EXPECT_EQ(result.stats.epoch, replay.releases) << label;
    EXPECT_EQ(result.stats.frequent_itemsets, result.output.size()) << label;
    EXPECT_GT(result.stats.fec_count, 0u) << label;
    EXPECT_LE(result.stats.fec_count, result.stats.frequent_itemsets) << label;
    EXPECT_EQ(result.stats.fec_count,
              PartitionIntoFecs(engine.RawOutput()).size())
        << label;
    EXPECT_EQ(engine.RawOutput().size(), result.stats.frequent_itemsets)
        << label;
    ++replay.releases;
    replay.min_fecs = std::min(replay.min_fecs, result.stats.fec_count);
    for (const SanitizedItemset& item : result.output.items()) {
      replay.any_bias = replay.any_bias || item.bias != 0;
    }
  }
  replay.digest = Fnv1a64(log.str());
  return replay;
}

struct GoldenCase {
  ButterflyScheme scheme;
  size_t gamma;  ///< Algorithm 1's window length
  uint64_t digest;
};

// Every scheme at the default γ = 2, and the order-preserving scheme at
// γ = 1, 4 and 8, whose DP windows have other lengths.
constexpr GoldenCase kGolden[] = {
    {ButterflyScheme::kBasic, 2, 0xdfcfe2a98126fd23ull},
    {ButterflyScheme::kOrderPreserving, 2, 0x239ae34eac3c11d2ull},
    {ButterflyScheme::kRatioPreserving, 2, 0x8bb9a56a336368a6ull},
    {ButterflyScheme::kHybrid, 2, 0x2640541c97ce85d1ull},
    {ButterflyScheme::kOrderPreserving, 1, 0x60f41a874457335dull},
    {ButterflyScheme::kOrderPreserving, 4, 0x31867df7de0901a8ull},
    {ButterflyScheme::kOrderPreserving, 8, 0x3d11419331a1e12eull},
};

TEST(ReleaseGoldenTest, LogDigestsMatchRecordedConstants) {
  for (const GoldenCase& golden : kGolden) {
    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
      const std::string label = SchemeName(golden.scheme) + " γ=" +
                                std::to_string(golden.gamma) + " @" +
                                std::to_string(threads);
      const Replay replay =
          ReplayStream(GoldenConfig(golden.scheme, golden.gamma, threads));
      EXPECT_EQ(replay.releases, kReleases) << label;
      EXPECT_GE(replay.min_fecs, kMinFecs) << label;
      EXPECT_EQ(replay.any_bias, golden.scheme != ButterflyScheme::kBasic)
          << label;
      EXPECT_EQ(replay.digest, golden.digest)
          << label << ": log digest 0x" << std::hex << replay.digest;
    }
  }
}

}  // namespace
}  // namespace butterfly
