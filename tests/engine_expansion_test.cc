/// \file engine_expansion_test.cc
/// \brief StreamPrivacyEngine expands each window once: RawOutput() keeps the
/// expansion until the next Append or Restore, Release() consumes the same
/// object, and the release's expand span reports the expansion in exactly
/// one release. Every result equals the expansion of the miner's closed
/// itemsets, the oracle for the output walk behind RawOutput(). The append
/// and restore checks run on windows with unpromising nodes, so the oracle
/// also covers the itemsets the walk copies from a blocker's run, on a
/// maintained CET and on one derived at restore.

#include <gtest/gtest.h>

#include "core/stream_engine.h"
#include "datagen/profiles.h"
#include "mining/closed.h"
#include "moment/moment.h"
#include "persist/serializer.h"

namespace butterfly {
namespace {

ButterflyConfig SmallConfig() {
  ButterflyConfig config;
  config.min_support = 5;
  config.vulnerable_support = 2;
  config.epsilon = 0.1;
  config.delta = 0.4;
  return config;
}

/// BmsPos windows at C = 3 hold unpromising nodes whose blocked supersets
/// have frequent extensions: the output walk copies those (DESIGN.md §9).
ButterflyConfig CopyingConfig() {
  ButterflyConfig config = SmallConfig();
  config.min_support = 3;
  config.epsilon = 0.2;  // keeps the noise within epsilon * C^2 at C = 3
  return config;
}

/// The number of itemsets RawOutput() emitted by copying: the output less
/// the CET's stored nodes.
size_t CopiedItemsets(StreamPrivacyEngine* engine) {
  const MomentStats stats = engine->miner().Stats();
  return engine->RawOutput().size() -
         (stats.unpromising_gateway + stats.intermediate + stats.closed);
}

TEST(StreamPrivacyEngineTest, RawOutputMatchesScratchAfterAppend) {
  auto engine = StreamPrivacyEngine::Create(100, CopyingConfig());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto data = *GenerateProfile(DatasetProfile::kBmsPos, 220, 7);
  size_t fed = 0;
  size_t unpromising_slides = 0;
  size_t copying_slides = 0;
  for (const Transaction& t : data) {
    engine->Append(t);
    if (++fed % 13 != 0) continue;
    EXPECT_TRUE(engine->RawOutput().SameAs(
        ExpandClosed(engine->miner().GetClosedFrequent())))
        << "after record " << fed;
    if (engine->miner().Stats().unpromising_gateway > 0) ++unpromising_slides;
    if (CopiedItemsets(&*engine) > 0) ++copying_slides;
  }
  EXPECT_GT(unpromising_slides, 0u);
  EXPECT_GT(copying_slides, 0u);
}

TEST(StreamPrivacyEngineTest, RawOutputWithoutAppendReturnsTheSameObject) {
  StreamPrivacyEngine engine(150, SmallConfig());
  auto data = *GenerateProfile(DatasetProfile::kBmsPos, 200, 9);
  for (const Transaction& t : data) engine.Append(t);

  const MiningOutput& first = engine.RawOutput();
  MiningOutput copy = first;
  const MiningOutput& second = engine.RawOutput();
  EXPECT_EQ(&first, &second);
  EXPECT_TRUE(second.SameAs(copy));
  engine.Release();
  EXPECT_EQ(&engine.RawOutput(), &first);  // Release consumes, not replaces
}

TEST(StreamPrivacyEngineTest, RawOutputMatchesScratchAfterRestore) {
  auto data = *GenerateProfile(DatasetProfile::kBmsPos, 300, 7);
  StreamPrivacyEngine source(100, CopyingConfig());
  for (size_t i = 0; i < 250; ++i) source.Append(data[i]);
  persist::CheckpointWriter writer;
  source.Checkpoint(&writer);

  // The target holds the expansion of a different window when it restores.
  StreamPrivacyEngine target(100, CopyingConfig());
  for (size_t i = 0; i < 120; ++i) target.Append(data[i]);
  const MiningOutput stale = target.RawOutput();
  ASSERT_FALSE(stale.SameAs(source.miner().GetAllFrequent()));

  persist::CheckpointReader reader(writer.data());
  ASSERT_TRUE(target.Restore(&reader).ok());
  EXPECT_GT(target.miner().Stats().unpromising_gateway, 0u);
  EXPECT_GT(CopiedItemsets(&target), 0u);
  EXPECT_TRUE(target.RawOutput().SameAs(
      ExpandClosed(target.miner().GetClosedFrequent())));
  EXPECT_TRUE(target.RawOutput().SameAs(source.RawOutput()));
}

TEST(StreamPrivacyEngineTest, ReleaseIsIdenticalWithAndWithoutRawOutput) {
  // Three engines, same stream and seed: one calls Release() alone, one
  // calls RawOutput() first, and one sanitizes the scratch expansion.
  ButterflyConfig config = SmallConfig();
  config.scheme = ButterflyScheme::kHybrid;
  StreamPrivacyEngine alone(100, config);
  StreamPrivacyEngine raw_first(100, config);
  StreamPrivacyEngine scratch(100, config);
  auto data = *GenerateProfile(DatasetProfile::kBmsPos, 200, 11);
  size_t fed = 0;
  size_t reports = 0;
  for (const Transaction& t : data) {
    alone.Append(t);
    raw_first.Append(t);
    scratch.Append(t);
    if (++fed % 20 != 0 || !alone.WindowFull()) continue;
    SanitizedOutput via_release = alone.Release().output;
    raw_first.RawOutput();
    SanitizedOutput via_raw_first = raw_first.Release().output;
    SanitizedOutput via_scratch = scratch.sanitizer().Sanitize(
        scratch.miner().GetAllFrequent(),
        static_cast<Support>(scratch.miner().window().size()));
    EXPECT_EQ(via_release.items(), via_raw_first.items()) << "report " << fed;
    EXPECT_EQ(via_release.items(), via_scratch.items()) << "report " << fed;
    ++reports;
  }
  EXPECT_GT(reports, 0u);
}

TEST(StreamPrivacyEngineTest, ExpandTimeIsReportedOncePerWindow) {
  StreamPrivacyEngine engine(100, SmallConfig());
  auto data = *GenerateProfile(DatasetProfile::kBmsWebView1, 140, 7);
  for (size_t i = 0; i < 120; ++i) engine.Append(data[i]);

  // A release on a fresh window expands it.
  EXPECT_GT(engine.Release().stats.spans[Stage::kExpand], 0);
  // The same window again: nothing left to expand.
  EXPECT_EQ(engine.Release().stats.spans[Stage::kExpand], 0);

  // RawOutput() makes the expansion; the next release reports it, once.
  engine.Append(data[120]);
  engine.RawOutput();
  engine.RawOutput();
  EXPECT_GT(engine.Release().stats.spans[Stage::kExpand], 0);
  EXPECT_EQ(engine.Release().stats.spans[Stage::kExpand], 0);
}

}  // namespace
}  // namespace butterfly
