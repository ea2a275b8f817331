/// \file release_golden_test.cc
/// \brief Absolute release bytes, pinned. The other release tests compare
/// two code paths of one build with each other, so a change that alters the
/// bytes the same way on every path passes all of them. This test replays a
/// fixed BMS-WebView-1 stream through StreamPrivacyEngine under every scheme
/// (republish cache on) at threads=1 and threads=4, and compares an FNV-1a
/// digest of each WriteRelease log against a recorded constant. The window
/// holds enough FECs that the Algorithm 1 DP runs full γ-windows over
/// multi-point bias grids. Re-record a constant only for a deliberate change
/// to the released values. The replay also checks each release's stats
/// against its output and that the FEC partition mostly syncs incrementally.

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

ButterflyConfig GoldenConfig(ButterflyScheme scheme, int64_t threads) {
  ButterflyConfig config;
  config.epsilon = 0.016;
  config.delta = 0.4;
  config.min_support = 12;
  config.vulnerable_support = 3;
  config.scheme = scheme;
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
  /// Releases after the first whose FEC sync patched instead of rebuilding.
  size_t incremental_syncs = 0;
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
    if (replay.releases > 0 &&
        engine.fec_partition().last_sync_was_incremental()) {
      ++replay.incremental_syncs;
    }
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
  uint64_t digest;
};

constexpr GoldenCase kGolden[] = {
    {ButterflyScheme::kBasic, 0xdfcfe2a98126fd23ull},
    {ButterflyScheme::kOrderPreserving, 0x239ae34eac3c11d2ull},
    {ButterflyScheme::kRatioPreserving, 0x8bb9a56a336368a6ull},
    {ButterflyScheme::kHybrid, 0x2640541c97ce85d1ull},
};

TEST(ReleaseGoldenTest, LogDigestsMatchRecordedConstants) {
  for (const GoldenCase& golden : kGolden) {
    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
      const std::string label =
          SchemeName(golden.scheme) + " @" + std::to_string(threads);
      const Replay replay = ReplayStream(GoldenConfig(golden.scheme, threads));
      EXPECT_EQ(replay.releases, kReleases) << label;
      EXPECT_GE(replay.min_fecs, kMinFecs) << label;
      // Not every release: Moment's crossover heuristic rebuilds the
      // expansion on some slides, and a rebuilt delta forces a full resync.
      EXPECT_GT(2 * replay.incremental_syncs, replay.releases - 1) << label;
      EXPECT_EQ(replay.any_bias, golden.scheme != ButterflyScheme::kBasic)
          << label;
      EXPECT_EQ(replay.digest, golden.digest)
          << label << ": log digest 0x" << std::hex << replay.digest;
    }
  }
}

}  // namespace
}  // namespace butterfly
