#include "core/butterfly.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace butterfly {
namespace {

MiningOutput MakeOutput(std::vector<std::pair<Itemset, Support>> entries,
                        Support c = 25) {
  MiningOutput out(c);
  for (auto& [itemset, support] : entries) out.Add(itemset, support);
  out.Seal();
  return out;
}

ButterflyConfig BaseConfig(ButterflyScheme scheme = ButterflyScheme::kBasic) {
  ButterflyConfig config;
  config.epsilon = 0.016;
  config.delta = 0.4;
  config.min_support = 25;
  config.vulnerable_support = 5;
  config.scheme = scheme;
  return config;
}

// A realistic little output: several FECs at and above C = 25.
MiningOutput RealisticOutput() {
  return MakeOutput({{Itemset{1}, 120},
                     {Itemset{2}, 80},
                     {Itemset{3}, 80},
                     {Itemset{1, 2}, 45},
                     {Itemset{1, 3}, 44},
                     {Itemset{2, 3}, 31},
                     {Itemset{1, 2, 3}, 25},
                     {Itemset{4}, 25}});
}

TEST(ButterflyConfigTest, ValidatesRequirements) {
  EXPECT_TRUE(BaseConfig().Validate().ok());

  ButterflyConfig bad = BaseConfig();
  bad.epsilon = 0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = BaseConfig();
  bad.delta = -1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = BaseConfig();
  bad.vulnerable_support = 30;  // K >= C
  EXPECT_FALSE(bad.Validate().ok());

  bad = BaseConfig();
  bad.lambda = 1.5;
  EXPECT_FALSE(bad.Validate().ok());

  // The DP state budget: up to kMaxOrderStates every step's flat table stays
  // bounded; one more is refused.
  ButterflyConfig budget = BaseConfig();
  budget.order_opt.max_states = kMaxOrderStates;
  EXPECT_TRUE(budget.Validate().ok());
  budget.order_opt.max_states = kMaxOrderStates + 1;
  EXPECT_EQ(budget.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ButterflyConfigTest, MinPprEnforced) {
  // K²/(2C²) = 25/1250 = 0.02; ε/δ below that is infeasible.
  ButterflyConfig config = BaseConfig();
  config.epsilon = 0.004;
  config.delta = 0.4;  // ppr = 0.01 < 0.02
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ButterflyConfigTest, DiscretizationGuardAtExactMinimumPpr) {
  // At exactly the minimum ppr the CONTINUOUS bound is satisfiable, but the
  // integer noise region (α = 7 for δ = 0.4, K = 5) realizes σ² = 5.25,
  // which overflows ε·C² = 5. Validate must reject it and accept a slightly
  // larger ε.
  ButterflyConfig config = BaseConfig();
  config.delta = 0.4;
  config.epsilon = 0.008;  // ppr exactly 0.02, but σ² = 5.25 > 5
  EXPECT_FALSE(config.Validate().ok());
  config.epsilon = 0.0085;  // ε·C² = 5.3125 >= 5.25
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ButterflyConfigTest, SchemeNames) {
  EXPECT_EQ(SchemeName(ButterflyScheme::kBasic), "basic");
  EXPECT_EQ(SchemeName(ButterflyScheme::kOrderPreserving), "order-preserving");
  EXPECT_EQ(SchemeName(ButterflyScheme::kRatioPreserving), "ratio-preserving");
  EXPECT_EQ(SchemeName(ButterflyScheme::kHybrid), "hybrid");
}

TEST(ButterflyEngineTest, CreateRejectsBadConfig) {
  ButterflyConfig bad = BaseConfig();
  bad.epsilon = -1;
  EXPECT_FALSE(ButterflyEngine::Create(bad).ok());
  EXPECT_TRUE(ButterflyEngine::Create(BaseConfig()).ok());
}

TEST(ButterflyEngineTest, ReleasesExactlyTheInputItemsets) {
  ButterflyEngine engine(BaseConfig());
  MiningOutput raw = RealisticOutput();
  SanitizedOutput release = engine.Sanitize(raw, 2000);
  EXPECT_EQ(release.size(), raw.size());
  for (const FrequentItemset& f : raw.itemsets()) {
    EXPECT_TRUE(release.SanitizedSupportOf(f.itemset).has_value());
  }
  EXPECT_EQ(release.window_size(), 2000);
  EXPECT_EQ(release.min_support(), 25);
}

TEST(ButterflyEngineTest, EmptyInputEmptyRelease) {
  ButterflyEngine engine(BaseConfig());
  MiningOutput raw(25);
  raw.Seal();
  EXPECT_TRUE(engine.Sanitize(raw, 2000).empty());
}

TEST(ButterflyEngineTest, NoiseStaysInsideUncertaintyRegion) {
  ButterflyEngine engine(BaseConfig());
  MiningOutput raw = RealisticOutput();
  int64_t alpha = engine.noise().alpha();
  for (int round = 0; round < 50; ++round) {
    SanitizedOutput release = engine.Sanitize(raw, 2000);
    for (const SanitizedItemset& item : release.items()) {
      Support truth = *raw.SupportOf(item.itemset);
      double center = static_cast<double>(truth) + item.bias;
      EXPECT_LE(std::abs(static_cast<double>(item.sanitized_support) - center),
                static_cast<double>(alpha) / 2.0 + 1.0)
          << item.itemset.ToString();
    }
  }
}

TEST(ButterflyEngineTest, PerItemsetBudgetRespectsEpsilon) {
  // β² + σ² <= ε·T² must hold analytically for every released itemset, for
  // every scheme.
  for (ButterflyScheme scheme :
       {ButterflyScheme::kBasic, ButterflyScheme::kOrderPreserving,
        ButterflyScheme::kRatioPreserving, ButterflyScheme::kHybrid}) {
    ButterflyConfig config = BaseConfig(scheme);
    config.republish_cache = false;
    ButterflyEngine engine(config);
    MiningOutput raw = RealisticOutput();
    SanitizedOutput release = engine.Sanitize(raw, 2000);
    for (const SanitizedItemset& item : release.items()) {
      double t = static_cast<double>(*raw.SupportOf(item.itemset));
      EXPECT_LE(item.bias * item.bias + item.variance,
                config.epsilon * t * t + 1e-6)
          << SchemeName(scheme) << " " << item.itemset.ToString();
    }
  }
}

TEST(ButterflyEngineTest, EmpiricalPredWithinEpsilon) {
  ButterflyConfig config = BaseConfig(ButterflyScheme::kHybrid);
  config.republish_cache = false;  // fresh noise each round
  ButterflyEngine engine(config);
  MiningOutput raw = RealisticOutput();
  double total = 0;
  size_t count = 0;
  for (int round = 0; round < 400; ++round) {
    SanitizedOutput release = engine.Sanitize(raw, 2000);
    for (const SanitizedItemset& item : release.items()) {
      double t = static_cast<double>(*raw.SupportOf(item.itemset));
      double err = static_cast<double>(item.sanitized_support) - t;
      total += err * err / (t * t);
      ++count;
    }
  }
  EXPECT_LE(total / static_cast<double>(count), config.epsilon * 1.1);
}

TEST(ButterflyEngineTest, FecMembersShareSanitizedValueUnderOptimizedSchemes) {
  for (ButterflyScheme scheme :
       {ButterflyScheme::kOrderPreserving, ButterflyScheme::kRatioPreserving,
        ButterflyScheme::kHybrid}) {
    ButterflyConfig config = BaseConfig(scheme);
    config.republish_cache = false;
    ButterflyEngine engine(config);
    MiningOutput raw = MakeOutput({{Itemset{1}, 40},
                                   {Itemset{2}, 40},
                                   {Itemset{3}, 40},
                                   {Itemset{4}, 90}});
    SanitizedOutput release = engine.Sanitize(raw, 2000);
    Support v1 = *release.SanitizedSupportOf(Itemset{1});
    EXPECT_EQ(v1, *release.SanitizedSupportOf(Itemset{2})) << SchemeName(scheme);
    EXPECT_EQ(v1, *release.SanitizedSupportOf(Itemset{3})) << SchemeName(scheme);
  }
}

TEST(ButterflyEngineTest, BasicSchemePerturbsMembersIndependently) {
  ButterflyConfig config = BaseConfig(ButterflyScheme::kBasic);
  config.republish_cache = false;
  ButterflyEngine engine(config);
  // 8 members of one FEC: with α = 7 the chance all draws collide across 30
  // rounds is negligible.
  MiningOutput raw = MakeOutput({{Itemset{1}, 40},
                                 {Itemset{2}, 40},
                                 {Itemset{3}, 40},
                                 {Itemset{4}, 40},
                                 {Itemset{5}, 40},
                                 {Itemset{6}, 40},
                                 {Itemset{7}, 40},
                                 {Itemset{8}, 40}});
  bool any_differ = false;
  for (int round = 0; round < 30 && !any_differ; ++round) {
    SanitizedOutput release = engine.Sanitize(raw, 2000);
    std::set<Support> values;
    for (const SanitizedItemset& item : release.items()) {
      values.insert(item.sanitized_support);
    }
    any_differ = values.size() > 1;
  }
  EXPECT_TRUE(any_differ);
}

TEST(ButterflyEngineTest, RepublishCachePinsUnchangedSupports) {
  ButterflyEngine engine(BaseConfig());
  MiningOutput raw = RealisticOutput();
  SanitizedOutput first = engine.Sanitize(raw, 2000);
  for (int round = 0; round < 5; ++round) {
    SanitizedOutput again = engine.Sanitize(raw, 2000);
    for (const SanitizedItemset& item : first.items()) {
      EXPECT_EQ(again.SanitizedSupportOf(item.itemset),
                item.sanitized_support)
          << item.itemset.ToString();
    }
  }
}

TEST(ButterflyEngineTest, ChangedSupportDrawsFreshNoiseEventually) {
  ButterflyEngine engine(BaseConfig());
  MiningOutput raw_a = MakeOutput({{Itemset{1}, 40}});
  MiningOutput raw_b = MakeOutput({{Itemset{1}, 41}});
  SanitizedOutput first = engine.Sanitize(raw_a, 2000);
  // Alternate supports: each change must invalidate the pin. Verify the
  // sanitized value tracks the new center (within the region), i.e. it is a
  // draw around 41 rather than the pinned around-40 value repeated.
  SanitizedOutput second = engine.Sanitize(raw_b, 2000);
  int64_t alpha = engine.noise().alpha();
  double v = static_cast<double>(*second.SanitizedSupportOf(Itemset{1}));
  EXPECT_LE(std::abs(v - 41.0), static_cast<double>(alpha) / 2.0 + 1.0);
}

TEST(ButterflyEngineTest, RepublishDisabledRedrawsNoise) {
  ButterflyConfig config = BaseConfig();
  config.republish_cache = false;
  ButterflyEngine engine(config);
  MiningOutput raw = MakeOutput({{Itemset{1}, 40}, {Itemset{2}, 90}});
  std::set<Support> observed;
  for (int i = 0; i < 40; ++i) {
    SanitizedOutput release = engine.Sanitize(raw, 2000);
    observed.insert(*release.SanitizedSupportOf(Itemset{1}));
  }
  EXPECT_GT(observed.size(), 1u);
}

TEST(ButterflyEngineTest, DeterministicForFixedSeed) {
  MiningOutput raw = RealisticOutput();
  ButterflyEngine a(BaseConfig());
  ButterflyEngine b(BaseConfig());
  SanitizedOutput ra = a.Sanitize(raw, 2000);
  SanitizedOutput rb = b.Sanitize(raw, 2000);
  EXPECT_EQ(ra.items(), rb.items());
}

TEST(ButterflyEngineTest, EstimatorProviderCorrectsBias) {
  ButterflyConfig config = BaseConfig(ButterflyScheme::kRatioPreserving);
  ButterflyEngine engine(config);
  MiningOutput raw = RealisticOutput();
  SanitizedOutput release = engine.Sanitize(raw, 2000);
  RealSupportProvider provider = release.AsEstimatorProvider();
  for (const SanitizedItemset& item : release.items()) {
    std::optional<double> estimate = provider(item.itemset);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_DOUBLE_EQ(*estimate,
                     static_cast<double>(item.sanitized_support) - item.bias);
  }
  EXPECT_DOUBLE_EQ(*provider(Itemset{}), 2000.0);
  EXPECT_FALSE(provider(Itemset{77}).has_value());
}

}  // namespace
}  // namespace butterfly
