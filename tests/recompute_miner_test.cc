#include "moment/recompute_miner.h"

#include <gtest/gtest.h>

#include "common/classification.h"
#include "common/rng.h"
#include "moment/moment.h"
#include "paper_stream.h"

namespace butterfly {
namespace {

using butterfly::testing::PaperStream;

TEST(RecomputeMinerTest, MatchesMomentOnPaperStream) {
  MomentMiner moment(8, 4);
  RecomputeStreamMiner recompute(8, 4);
  for (const Transaction& t : PaperStream()) {
    moment.Append(t);
    recompute.Append(t);
    EXPECT_TRUE(
        recompute.GetClosedFrequent().SameAs(moment.GetClosedFrequent()));
    EXPECT_TRUE(recompute.GetAllFrequent().SameAs(moment.GetAllFrequent()));
  }
}

TEST(RecomputeMinerTest, MatchesMomentOnRandomStreams) {
  Rng rng(77);
  MomentMiner moment(12, 3);
  RecomputeStreamMiner recompute(12, 3);
  for (int i = 0; i < 40; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < 7; ++a) {
      if (rng.Bernoulli(0.35)) items.push_back(a);
    }
    if (items.empty()) items.push_back(0);
    Transaction t(0, Itemset(std::move(items)));
    moment.Append(t);
    recompute.Append(t);
    ASSERT_TRUE(
        recompute.GetClosedFrequent().SameAs(moment.GetClosedFrequent()))
        << "record " << i;
  }
}

TEST(ClassificationTest, Definition1Partition) {
  // C = 25, K = 5.
  EXPECT_EQ(ClassifySupport(0, 25, 5), PatternClass::kAbsent);
  EXPECT_EQ(ClassifySupport(1, 25, 5), PatternClass::kHardVulnerable);
  EXPECT_EQ(ClassifySupport(5, 25, 5), PatternClass::kHardVulnerable);
  EXPECT_EQ(ClassifySupport(6, 25, 5), PatternClass::kSoftVulnerable);
  EXPECT_EQ(ClassifySupport(24, 25, 5), PatternClass::kSoftVulnerable);
  EXPECT_EQ(ClassifySupport(25, 25, 5), PatternClass::kFrequent);
  EXPECT_EQ(ClassifySupport(1000, 25, 5), PatternClass::kFrequent);
}

TEST(ClassificationTest, Names) {
  EXPECT_EQ(PatternClassName(PatternClass::kHardVulnerable),
            "hard-vulnerable");
  EXPECT_EQ(PatternClassName(PatternClass::kFrequent), "frequent");
  EXPECT_EQ(PatternClassName(PatternClass::kSoftVulnerable),
            "soft-vulnerable");
  EXPECT_EQ(PatternClassName(PatternClass::kAbsent), "absent");
}

TEST(ClassificationTest, ClassifiesBreachFinderOutputsConsistently) {
  // Every hard vulnerable pattern the breach finder reports must classify as
  // hard-vulnerable under the same thresholds.
  EXPECT_EQ(ClassifySupport(3, 25, 5), PatternClass::kHardVulnerable);
  for (Support s = 1; s <= 5; ++s) {
    EXPECT_EQ(ClassifySupport(s, 25, 5), PatternClass::kHardVulnerable);
  }
}

}  // namespace
}  // namespace butterfly
