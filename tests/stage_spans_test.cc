/// \file stage_spans_test.cc
/// \brief The stage record of a release: StageSpans arithmetic, the stage
/// names the bench JSON is keyed on, and the spans that every release
/// backend and the fleet report. A release's spans are disjoint laps taken
/// after the previous Release() returned, so their total never exceeds the
/// wall time from that return to this one; a stage counted twice, or
/// pending spans left unzeroed, breaks the bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/timing.h"
#include "core/stream_engine.h"
#include "random_stream.h"
#include "service/engine_fleet.h"

namespace butterfly {
namespace {

TEST(StageSpansTest, AddsPerStageAndTotals) {
  StageSpans a;
  EXPECT_EQ(a.Total(), 0);
  a[Stage::kMine] = 1;
  a[Stage::kEmit] = 4;
  StageSpans b;
  b[Stage::kMine] = 2;
  b[Stage::kBias] = 8;
  a += b;
  EXPECT_EQ(a[Stage::kMine], 3);
  EXPECT_EQ(a[Stage::kExpand], 0);
  EXPECT_EQ(a[Stage::kBias], 8);
  EXPECT_EQ(a[Stage::kEmit], 4);
  EXPECT_EQ(a.Total(), 15);
  EXPECT_EQ(b.Total(), 10);
}

TEST(StageSpansTest, StageNamesAreTheBenchKeysInEnumOrder) {
  // fig8 writes `<name>_ns` for each stage and reads its baseline back by
  // the same names, so a renamed or reordered stage changes the artifact.
  const std::vector<std::string_view> want = {"mine",  "expand", "partition",
                                              "bias",  "noise",  "emit"};
  ASSERT_EQ(kStageNames.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(kStageNames[i], want[i]) << "stage " << i;
  }
  EXPECT_EQ(kStageNames[static_cast<size_t>(Stage::kMine)], "mine");
  EXPECT_EQ(kStageNames[static_cast<size_t>(Stage::kEmit)], "emit");
}

TEST(StageClockTest, LapsStayWithinTheirWallTime) {
  StageSpans spans;
  Stopwatch wall;
  StageClock clock(&spans);
  clock.Lap(Stage::kNoise);
  clock.Lap(Stage::kNoise);
  clock.Lap(Stage::kBias);
  const double wall_ns = wall.Seconds() * 1e9;
  EXPECT_LE(spans.Total(), wall_ns);
  EXPECT_EQ(spans.Total(), spans[Stage::kNoise] + spans[Stage::kBias]);

  StageClock off(nullptr);  // times nothing
  off.Lap(Stage::kMine);
}

class BackendSpansTest : public ::testing::TestWithParam<ReleasePolicyKind> {};

TEST_P(BackendSpansTest, SpansFitTheWallTimeBetweenReleases) {
  const ReleasePolicyKind kind = GetParam();
  const testutil::StreamCase param = testutil::kCases[3];
  ButterflyConfig config = testutil::MakeCaseConfig(param, /*threads=*/1);
  config.policy = kind;
  config.policy_epsilon = 1.0;
  config.policy_top_k = 8;
  const std::vector<Transaction> stream = testutil::RandomStream(param);

  // Started before the engine exists: the first release's spans include
  // every append since construction.
  Stopwatch since_release;
  auto engine = StreamPrivacyEngine::Create(param.window, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto release = [&] {
    ReleaseResult result = engine->Release();
    const double wall_ns = since_release.Seconds() * 1e9;
    since_release.Restart();
    EXPECT_LE(result.stats.spans.Total(), wall_ns)
        << ReleasePolicyName(kind) << " epoch " << result.stats.epoch;
    return result.stats.spans;
  };

  size_t releases = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    engine->Append(stream[i]);
    const size_t fed = i + 1;
    if (fed < param.window || (fed - param.window) % 20 != 0) continue;
    ++releases;
    const StageSpans fresh = release();
    EXPECT_GT(fresh[Stage::kMine], 0);
    EXPECT_GT(fresh[Stage::kExpand], 0);
    if (kind != ReleasePolicyKind::kButterfly) {
      EXPECT_EQ(fresh[Stage::kBias], 0) << "a DP backend sets no biases";
    }
    // The same window again: nothing was mined or expanded since.
    const StageSpans again = release();
    EXPECT_EQ(again[Stage::kMine], 0);
    EXPECT_EQ(again[Stage::kExpand], 0);
  }
  EXPECT_GT(releases, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendSpansTest,
    ::testing::Values(ReleasePolicyKind::kButterfly,
                      ReleasePolicyKind::kPrivBasis,
                      ReleasePolicyKind::kContinual,
                      ReleasePolicyKind::kHeavyHitter),
    [](const auto& param_info) { return ReleasePolicyName(param_info.param); });

TEST(FleetSpansTest, SpansFitTheSerialPumpWallTime) {
  constexpr size_t kTenants = 3;
  constexpr size_t kRecords = 100;
  FleetConfig config;
  config.tenants = kTenants;
  config.threads = 1;  // one thread: the spans cannot overlap in time
  config.window = 40;
  config.stride = 10;
  config.engine.min_support = 4;
  config.engine.vulnerable_support = 2;
  config.engine.epsilon = 0.1;
  config.engine.delta = 0.4;
  auto fleet = EngineFleet::Create(config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  std::vector<std::vector<Transaction>> streams;
  for (uint64_t t = 0; t < kTenants; ++t) {
    streams.push_back(testutil::RandomStream(
        {/*seed=*/301 + t, /*window=*/40, /*records=*/kRecords,
         /*alphabet=*/8, /*density=*/0.30, /*min_support=*/4}));
  }
  double pump_ns = 0;
  for (size_t begin = 0; begin < kRecords; begin += 7) {
    const size_t end = std::min(begin + 7, kRecords);
    for (uint64_t t = 0; t < kTenants; ++t) {
      for (size_t i = begin; i < end; ++i) {
        ASSERT_TRUE(fleet->Ingest(t, streams[t][i]).ok());
      }
    }
    Stopwatch watch;
    fleet->Pump();
    pump_ns += watch.Seconds() * 1e9;
  }

  const FleetStats stats = fleet->Stats();
  EXPECT_EQ(stats.releases, kTenants * 7);
  EXPECT_LE(stats.spans.Total(), pump_ns);
  EXPECT_GT(stats.spans[Stage::kMine], 0);
  EXPECT_GT(stats.spans[Stage::kExpand], 0);
}

}  // namespace
}  // namespace butterfly
