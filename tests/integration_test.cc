#include <gtest/gtest.h>

#include "core/stream_engine.h"
#include "datagen/profiles.h"
#include "inference/breach_finder.h"
#include "metrics/privacy_metrics.h"
#include "metrics/utility_metrics.h"
#include "mining/support.h"
#include "paper_stream.h"

namespace butterfly {
namespace {

using butterfly::testing::kA;
using butterfly::testing::kB;
using butterfly::testing::kC;
using butterfly::testing::PaperStream;

TEST(StreamEngineTest, CreateValidates) {
  ButterflyConfig config;
  EXPECT_TRUE(StreamPrivacyEngine::Create(100, config).ok());
  EXPECT_FALSE(StreamPrivacyEngine::Create(0, config).ok());
  // Every window is bounded by kMaxWindow: a larger one is refused with a
  // Status, on the dense store as on the hybrid one, whose index addresses
  // slots with uint16 and would abort in its constructor.
  for (bool hybrid : {false, true}) {
    config.hybrid_index = hybrid;
    EXPECT_TRUE(StreamPrivacyEngine::Create(kMaxWindow, config).ok()) << hybrid;
    EXPECT_EQ(StreamPrivacyEngine::Create(kMaxWindow + 1, config)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << hybrid;
  }
  config.epsilon = -1;
  EXPECT_FALSE(StreamPrivacyEngine::Create(100, config).ok());
}

TEST(StreamEngineTest, PaperScenarioEndToEnd) {
  ButterflyConfig config;
  config.min_support = 4;
  config.vulnerable_support = 1;
  config.epsilon = 0.4;   // min ppr = 1/32; generous for the toy stream
  config.delta = 0.5;
  config.scheme = ButterflyScheme::kBasic;
  StreamPrivacyEngine engine(8, config);

  std::vector<Transaction> stream = PaperStream();
  for (size_t i = 0; i < 11; ++i) engine.Append(stream[i]);

  MiningOutput raw = engine.RawOutput();
  EXPECT_EQ(raw.SupportOf(Itemset{kA, kB, kC}), 4);  // Ds(11,8)

  SanitizedOutput release = engine.Release().output;
  EXPECT_EQ(release.size(), raw.size());
  EXPECT_EQ(release.window_size(), 8);

  engine.Append(stream[11]);
  raw = engine.RawOutput();
  EXPECT_FALSE(raw.SupportOf(Itemset{kA, kB, kC}).has_value());  // Ds(12,8)
  EXPECT_EQ(raw.SupportOf(Itemset{kA, kC}), 5);
}

// The headline end-to-end property: on a realistic stream, the released
// output stays within the ε precision budget while the adversary's error on
// every inferable vulnerable pattern averages at least δ.
class EndToEndPropertyTest : public ::testing::TestWithParam<ButterflyScheme> {
};

TEST_P(EndToEndPropertyTest, PrecisionAndPrivacyBudgetsHold) {
  ButterflyConfig config;
  config.min_support = 10;
  config.vulnerable_support = 3;
  config.delta = 0.4;
  config.epsilon = 0.04;  // ppr 0.1 >= min ppr 0.045
  config.scheme = GetParam();
  config.seed = 1234;

  const size_t window = 300;
  auto data = GenerateProfile(DatasetProfile::kBmsWebView1, 700, /*seed=*/21);
  ASSERT_TRUE(data.ok());

  StreamPrivacyEngine engine(window, config);
  AttackConfig attack;
  attack.vulnerable_support = config.vulnerable_support;
  attack.max_itemset_size = 8;

  size_t reports = 0;
  size_t breach_windows = 0;
  double pred_sum = 0;
  double prig_sum = 0;
  size_t prig_count = 0;

  for (size_t i = 0; i < data->size(); ++i) {
    engine.Append((*data)[i]);
    if (!engine.WindowFull()) continue;
    if ((i + 1) % 25 != 0) continue;  // report every 25 slides
    ++reports;

    MiningOutput raw = engine.RawOutput();
    SanitizedOutput release = engine.Release().output;
    pred_sum += AvgPred(raw, release);

    std::vector<InferredPattern> breaches = FindIntraWindowBreaches(
        raw, static_cast<Support>(window), attack);
    if (breaches.empty()) continue;
    ++breach_windows;
    PrivacyEvaluation eval = EvaluatePrivacy(breaches, release);
    if (eval.evaluated_patterns > 0) {
      prig_sum += eval.avg_prig;
      ++prig_count;
    }
  }

  ASSERT_GT(reports, 5u);
  ASSERT_GT(breach_windows, 0u) << "the unprotected stream must leak";

  double avg_pred = pred_sum / static_cast<double>(reports);
  EXPECT_LE(avg_pred, config.epsilon * 1.25)
      << SchemeName(config.scheme) << ": precision budget violated";

  ASSERT_GT(prig_count, 0u);
  double avg_prig = prig_sum / static_cast<double>(prig_count);
  EXPECT_GE(avg_prig, config.delta)
      << SchemeName(config.scheme) << ": privacy floor violated";
}

INSTANTIATE_TEST_SUITE_P(Schemes, EndToEndPropertyTest,
                         ::testing::Values(ButterflyScheme::kBasic,
                                           ButterflyScheme::kOrderPreserving,
                                           ButterflyScheme::kRatioPreserving,
                                           ButterflyScheme::kHybrid),
                         [](const auto& param_info) {
                           return SchemeName(param_info.param) == "order-preserving"
                                      ? std::string("order")
                                      : SchemeName(param_info.param) ==
                                                "ratio-preserving"
                                            ? std::string("ratio")
                                            : SchemeName(param_info.param);
                         });

TEST(EndToEndTest, OptimizedSchemesPreserveMoreOrderThanTheyLose) {
  // Order-preserving should beat ratio-preserving on ropp, and vice versa on
  // rrpp, averaged over windows (the Fig. 5 shape).
  auto data = GenerateProfile(DatasetProfile::kBmsWebView1, 900, /*seed=*/33);
  ASSERT_TRUE(data.ok());

  auto run = [&](ButterflyScheme scheme, double* ropp, double* rrpp) {
    ButterflyConfig config;
    config.min_support = 10;
    config.vulnerable_support = 3;
    config.delta = 0.4;
    config.epsilon = 0.24;  // generous bias room to separate the schemes
    config.scheme = scheme;
    config.seed = 77;
    StreamPrivacyEngine engine(300, config);
    double ropp_sum = 0, rrpp_sum = 0;
    size_t reports = 0;
    for (size_t i = 0; i < data->size(); ++i) {
      engine.Append((*data)[i]);
      if (!engine.WindowFull() || (i + 1) % 50 != 0) continue;
      MiningOutput raw = engine.RawOutput();
      SanitizedOutput release = engine.Release().output;
      ropp_sum += Ropp(raw, release);
      rrpp_sum += Rrpp(raw, release);
      ++reports;
    }
    ASSERT_GT(reports, 0u);
    *ropp = ropp_sum / static_cast<double>(reports);
    *rrpp = rrpp_sum / static_cast<double>(reports);
  };

  double order_ropp = 0, order_rrpp = 0, ratio_ropp = 0, ratio_rrpp = 0;
  run(ButterflyScheme::kOrderPreserving, &order_ropp, &order_rrpp);
  run(ButterflyScheme::kRatioPreserving, &ratio_ropp, &ratio_rrpp);

  EXPECT_GE(order_ropp, ratio_ropp - 0.02) << "order scheme lost on ropp";
  EXPECT_GE(ratio_rrpp, order_rrpp - 0.02) << "ratio scheme lost on rrpp";
}

TEST(EndToEndTest, SanitizationDefeatsTheExample5Attack) {
  // Replay the paper's inter-window attack against sanitized releases: the
  // adversary's point estimate of the pattern support should now err.
  ButterflyConfig config;
  config.min_support = 4;
  config.vulnerable_support = 1;
  config.epsilon = 0.4;
  config.delta = 1.0;  // strong noise on the toy scale
  config.scheme = ButterflyScheme::kBasic;
  config.seed = 5;

  std::vector<Transaction> stream = PaperStream();
  double total_sq_rel_err = 0;
  int trials = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    config.seed = seed;
    StreamPrivacyEngine engine(8, config);
    for (size_t i = 0; i < 12; ++i) engine.Append(stream[i]);
    SanitizedOutput release = engine.Release().output;
    // The Example 5 target: T(c∧¬a∧¬b) = 1 in Ds(12,8). The adversary's
    // best estimator through the sanitized lattice (with inter-window abc
    // knowledge replaced by its sanitized derivation) needs abc, which is
    // not released; estimate through released c, ac, bc plus the true abc=3
    // an inter-window attacker would have pinned pre-sanitization.
    RealSupportProvider provider = release.AsEstimatorProvider();
    auto enriched = [&](const Itemset& s) -> std::optional<double> {
      if (s == (Itemset{kA, kB, kC})) return 3.0;
      return provider(s);
    };
    std::optional<double> estimate = DerivePatternEstimate(
        enriched, Pattern(Itemset{kC}, Itemset{kA, kB}));
    ASSERT_TRUE(estimate.has_value());
    total_sq_rel_err += (*estimate - 1.0) * (*estimate - 1.0);
    ++trials;
  }
  // Relative squared error vs T(p)=1 must on average exceed δ.
  EXPECT_GE(total_sq_rel_err / trials, config.delta);
}

}  // namespace
}  // namespace butterfly
