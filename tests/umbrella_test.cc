// Compile-level check that the umbrella header is self-contained and the
// whole public API coexists in one translation unit, plus a tiny end-to-end
// exercise through it.

#include "butterfly.h"

#include <gtest/gtest.h>

namespace butterfly {
namespace {

TEST(UmbrellaTest, PipelineCompilesAndRuns) {
  ButterflyConfig config;
  config.min_support = 3;
  config.vulnerable_support = 1;
  config.epsilon = 0.5;
  config.delta = 0.5;
  auto engine = StreamPrivacyEngine::Create(4, config);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 8; ++i) {
    engine->Append(Transaction(0, Itemset{1, 2}));
  }
  SanitizedOutput release = engine->Release().output;
  EXPECT_FALSE(release.empty());
  EXPECT_TRUE(release.SanitizedSupportOf(Itemset{1, 2}).has_value());
}

TEST(UmbrellaTest, TypesFromEveryModuleVisible) {
  [[maybe_unused]] Interval interval(0, 1);
  [[maybe_unused]] Pattern pattern;
  [[maybe_unused]] PatternClass pc = ClassifySupport(3, 25, 5);
  [[maybe_unused]] QuestConfig quest;
  [[maybe_unused]] DriftConfig drift;
  [[maybe_unused]] AttackConfig attack;
  [[maybe_unused]] WitnessQuery witness;
  [[maybe_unused]] NoiseModel noise(0.4, 5);
  [[maybe_unused]] AuditReport audit;
  [[maybe_unused]] StageSpans spans;
  SUCCEED();
}

}  // namespace
}  // namespace butterfly
