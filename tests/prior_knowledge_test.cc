/// Tests of the three prior-knowledge defenses/evaluations (§V-C.2 of the
/// paper): FREQSAT-justified independence is implicit; PK2 (averaging) and
/// PK3 (knowledge points) are exercised here.

#include <gtest/gtest.h>

#include "core/butterfly.h"
#include "metrics/privacy_metrics.h"

namespace butterfly {
namespace {

MiningOutput MakeOutput(std::vector<std::pair<Itemset, Support>> entries) {
  MiningOutput out(25);
  for (auto& [itemset, support] : entries) out.Add(itemset, support);
  out.Seal();
  return out;
}

ButterflyConfig BaseConfig() {
  ButterflyConfig config;
  config.epsilon = 0.016;
  config.delta = 0.4;
  config.min_support = 25;
  config.vulnerable_support = 5;
  return config;
}

// An output with a derivable vulnerable pattern: T(1 ∧ ¬2) = 30 − 27 = 3.
MiningOutput LeakyOutput() {
  return MakeOutput({{Itemset{1}, 30}, {Itemset{2}, 60}, {Itemset{1, 2}, 27}});
}

std::vector<InferredPattern> LeakyBreach() {
  return {InferredPattern{Pattern(Itemset{1}, Itemset{2}), 3, false}};
}

TEST(AveragingAttackTest, IndependentNoiseAveragesOut) {
  // Republish cache off: n independent releases let the adversary shrink the
  // estimation error roughly like 1/n.
  ButterflyConfig config = BaseConfig();
  config.republish_cache = false;
  ButterflyEngine engine(config);
  MiningOutput raw = LeakyOutput();

  std::vector<SanitizedOutput> one, many;
  for (int i = 0; i < 64; ++i) {
    SanitizedOutput release = engine.Sanitize(raw, 2000);
    if (i == 0) one.push_back(release);
    many.push_back(release);
  }
  PrivacyEvaluation single = EvaluateAveragingAttack(LeakyBreach(), one);
  PrivacyEvaluation averaged = EvaluateAveragingAttack(LeakyBreach(), many);
  // With 64 observations the averaged error must be clearly below a single
  // observation's expected error (2σ²/T² with σ²≈4.67, T=3 → ≈1.0).
  EXPECT_LT(averaged.avg_prig, 0.25);
  EXPECT_LT(averaged.avg_prig, single.avg_prig + 0.5);
}

TEST(AveragingAttackTest, RepublishCacheDefeatsAveraging) {
  ButterflyConfig config = BaseConfig();
  config.republish_cache = true;
  ButterflyEngine engine(config);
  MiningOutput raw = LeakyOutput();

  std::vector<SanitizedOutput> releases;
  for (int i = 0; i < 64; ++i) releases.push_back(engine.Sanitize(raw, 2000));

  PrivacyEvaluation first =
      EvaluateAveragingAttack(LeakyBreach(), {releases.front()});
  PrivacyEvaluation averaged = EvaluateAveragingAttack(LeakyBreach(), releases);
  // All releases are identical, so averaging changes nothing at all.
  EXPECT_DOUBLE_EQ(first.avg_prig, averaged.avg_prig);
}

TEST(AveragingAttackTest, AveragedAcrossManySeedsBeatsFloorWithoutCache) {
  // Statistical version: expected single-release error for this breach is
  // ≈ 2σ²/9 ≈ 1.0; repeat over seeds to compare one vs sixteen observations.
  double single_total = 0, averaged_total = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    ButterflyConfig config = BaseConfig();
    config.republish_cache = false;
    config.seed = seed;
    ButterflyEngine engine(config);
    MiningOutput raw = LeakyOutput();
    std::vector<SanitizedOutput> releases;
    for (int i = 0; i < 16; ++i) releases.push_back(engine.Sanitize(raw, 2000));
    single_total +=
        EvaluateAveragingAttack(LeakyBreach(), {releases.front()}).avg_prig;
    averaged_total += EvaluateAveragingAttack(LeakyBreach(), releases).avg_prig;
  }
  EXPECT_LT(averaged_total, single_total / 4.0)
      << "averaging should shrink the error ~16x without the cache";
}

TEST(KnowledgePointTest, ExactKnowledgeShrinksProtection) {
  // If the adversary knows T({1,2}) exactly, only {1}'s noise protects the
  // pattern — the measured error should drop on average.
  double with_kp = 0, without_kp = 0;
  std::unordered_map<Itemset, Support, ItemsetHash> kp = {{Itemset{1, 2}, 27}};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ButterflyConfig config = BaseConfig();
    config.republish_cache = false;
    config.seed = seed;
    ButterflyEngine engine(config);
    SanitizedOutput release = engine.Sanitize(LeakyOutput(), 2000);
    without_kp += EvaluatePrivacy(LeakyBreach(), release).avg_prig;
    with_kp +=
        EvaluatePrivacyWithKnowledgePoints(LeakyBreach(), release, kp).avg_prig;
  }
  EXPECT_LT(with_kp, without_kp);
  EXPECT_GT(with_kp, 0.0);  // the remaining node still carries noise
}

TEST(KnowledgePointTest, KnowingEveryNodeRecoversTruth) {
  std::unordered_map<Itemset, Support, ItemsetHash> kp = {
      {Itemset{1}, 30}, {Itemset{1, 2}, 27}};
  ButterflyEngine engine(BaseConfig());
  SanitizedOutput release = engine.Sanitize(LeakyOutput(), 2000);
  PrivacyEvaluation eval =
      EvaluatePrivacyWithKnowledgePoints(LeakyBreach(), release, kp);
  EXPECT_DOUBLE_EQ(eval.avg_prig, 0.0);
}

}  // namespace
}  // namespace butterfly
