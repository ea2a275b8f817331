#include <gtest/gtest.h>

#include "brute_force.h"
#include "common/rng.h"
#include "datagen/quest_generator.h"
#include "mining/closed.h"
#include "mining/eclat.h"
#include "mining/rules.h"
#include "mining/support.h"
#include "moment/moment.h"
#include "paper_stream.h"

namespace butterfly {
namespace {

using butterfly::testing::BruteForceFrequent;
using butterfly::testing::kA;
using butterfly::testing::kB;
using butterfly::testing::kC;
using butterfly::testing::kD;
using butterfly::testing::PaperWindow;

std::vector<Transaction> RandomWindow(Rng* rng, size_t n, Item alphabet,
                                      double density) {
  std::vector<Transaction> window;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < alphabet; ++a) {
      if (rng->Bernoulli(density)) items.push_back(a);
    }
    if (items.empty()) items.push_back(static_cast<Item>(rng->UniformInt(0, alphabet - 1)));
    window.emplace_back(i + 1, Itemset(std::move(items)));
  }
  return window;
}

TEST(SupportTest, CountSupportOnPaperWindow) {
  std::vector<Transaction> window = PaperWindow(12);  // Ds(12, 8)
  EXPECT_EQ(CountSupport(window, Itemset{kC}), 8);
  EXPECT_EQ(CountSupport(window, Itemset{kA, kC}), 5);
  EXPECT_EQ(CountSupport(window, Itemset{kB, kC}), 5);
  EXPECT_EQ(CountSupport(window, Itemset{kA, kB, kC}), 3);
  EXPECT_EQ(CountSupport(window, Itemset{kD}), 1);
  EXPECT_EQ(CountSupport(window, Itemset{}), 8);  // empty set: all records
}

TEST(SupportTest, CountSupportOnPreviousPaperWindow) {
  std::vector<Transaction> window = PaperWindow(11);  // Ds(11, 8)
  EXPECT_EQ(CountSupport(window, Itemset{kC}), 8);
  EXPECT_EQ(CountSupport(window, Itemset{kA, kC}), 6);
  EXPECT_EQ(CountSupport(window, Itemset{kB, kC}), 6);
  EXPECT_EQ(CountSupport(window, Itemset{kA, kB, kC}), 4);
}

TEST(SupportTest, PatternSupportExample3) {
  // Example 3: p = c ∧ ¬a ∧ ¬b has support 1 w.r.t. Ds(12, 8).
  std::vector<Transaction> window = PaperWindow(12);
  Pattern p(Itemset{kC}, Itemset{kA, kB});
  EXPECT_EQ(CountPatternSupport(window, p), 1);
}

TEST(SupportTest, PatternSupportPureNegation) {
  std::vector<Transaction> window = PaperWindow(12);
  Pattern p(Itemset{}, Itemset{kC});
  EXPECT_EQ(CountPatternSupport(window, p), 0);  // every record has c
}

TEST(MiningOutputTest, AddLookupSeal) {
  MiningOutput out(2);
  out.Add(Itemset{2, 1}, 5);
  out.Add(Itemset{3}, 7);
  out.Seal();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.SupportOf(Itemset{1, 2}), 5);
  EXPECT_EQ(out.SupportOf(Itemset{3}), 7);
  EXPECT_FALSE(out.SupportOf(Itemset{9}).has_value());
  EXPECT_TRUE(out.Contains(Itemset{3}));
  // Sealed order is lexicographic.
  EXPECT_EQ(out.itemsets()[0].itemset, (Itemset{1, 2}));
}

TEST(MiningOutputTest, SameAsComparesContent) {
  MiningOutput a(2), b(2), c(2);
  a.Add(Itemset{1}, 3);
  b.Add(Itemset{1}, 3);
  c.Add(Itemset{1}, 4);
  EXPECT_TRUE(a.SameAs(b));
  EXPECT_FALSE(a.SameAs(c));
}

TEST(MiningOutputTest, LookupsScanBeforeSeal) {
  MiningOutput a(2), b(2);
  a.Add(Itemset{3}, 7);
  a.Add(Itemset{1, 2}, 5);
  a.Add(Itemset{1}, 6);
  b.Add(Itemset{1}, 6);
  b.Add(Itemset{1, 2}, 5);
  b.Add(Itemset{3}, 7);
  EXPECT_EQ(a.SupportOf(Itemset{1, 2}), 5);
  EXPECT_EQ(a.SupportOf(Itemset{3}), 7);
  EXPECT_FALSE(a.SupportOf(Itemset{2}).has_value());
  EXPECT_TRUE(b.Contains(Itemset{1}));
  EXPECT_FALSE(b.Contains(Itemset{1, 3}));
  EXPECT_TRUE(a.SameAs(b));
  EXPECT_TRUE(b.SameAs(a));

  // A sealed side compares with an unsealed one by content, not order.
  b.Seal();
  EXPECT_TRUE(a.SameAs(b));
  EXPECT_TRUE(b.SameAs(a));
  MiningOutput c(2);
  c.Add(Itemset{3}, 7);
  c.Add(Itemset{1, 2}, 4);  // same itemsets as b, one support differs
  c.Add(Itemset{1}, 6);
  EXPECT_FALSE(c.SameAs(b));
  EXPECT_FALSE(b.SameAs(c));
}

const EclatMiner kEclat;

TEST(EclatTest, MatchesBruteForceOnPaperWindow) {
  for (size_t n = 8; n <= 12; ++n) {
    std::vector<Transaction> window = PaperWindow(n);
    for (Support c : {1, 2, 4, 6}) {
      MiningOutput expected = BruteForceFrequent(window, c);
      MiningOutput actual = kEclat.Mine(window, c);
      EXPECT_TRUE(actual.SameAs(expected))
          << "n=" << n << " C=" << c << "\nexpected:\n"
          << expected.ToString() << "actual:\n"
          << actual.ToString();
    }
  }
}

TEST(EclatTest, MatchesBruteForceOnRandomWindows) {
  Rng rng(2024);
  for (int round = 0; round < 10; ++round) {
    std::vector<Transaction> window = RandomWindow(&rng, 40, 8, 0.3);
    Support c = static_cast<Support>(rng.UniformInt(2, 10));
    MiningOutput expected = BruteForceFrequent(window, c);
    MiningOutput actual = kEclat.Mine(window, c);
    EXPECT_TRUE(actual.SameAs(expected)) << "round=" << round << " C=" << c;
  }
}

TEST(EclatTest, EmptyWindowYieldsNothing) {
  EXPECT_TRUE(kEclat.Mine({}, 1).empty());
}

TEST(EclatTest, ThresholdAboveWindowYieldsNothing) {
  std::vector<Transaction> window = PaperWindow(12);
  EXPECT_TRUE(kEclat.Mine(window, 100).empty());
}

TEST(EclatTest, OutputIsDownwardClosed) {
  Rng rng(5);
  std::vector<Transaction> window = RandomWindow(&rng, 50, 9, 0.35);
  MiningOutput out = kEclat.Mine(window, 5);
  for (const FrequentItemset& f : out.itemsets()) {
    for (Item i : f.itemset) {
      if (f.itemset.size() == 1) continue;
      Itemset sub = f.itemset.Without(i);
      std::optional<Support> sub_support = out.SupportOf(sub);
      ASSERT_TRUE(sub_support.has_value())
          << "missing subset " << sub.ToString();
      EXPECT_GE(*sub_support, f.support);
    }
  }
}

TEST(MinerCrossCheckTest, EclatAgreesWithMomentOnQuestData) {
  // 60 items is past the brute-force oracle; a window holding all 400
  // records makes Moment's expanded output the batch answer.
  QuestConfig config;
  config.num_transactions = 400;
  config.num_items = 60;
  config.avg_transaction_len = 5;
  config.seed = 3;
  auto data = GenerateQuest(config);
  ASSERT_TRUE(data.ok());
  MomentMiner moment(400, 12);
  for (const Transaction& t : *data) moment.Append(t);
  MiningOutput eclat = kEclat.Mine(*data, 12);
  EXPECT_FALSE(eclat.empty());
  EXPECT_TRUE(eclat.SameAs(moment.GetAllFrequent()));
}

TEST(ClosedTest, FilterClosedOnPaperWindow) {
  // In Ds(12,8) with C = 3: frequent are a(5) b(5) c(8) ab(3) ac(5) bc(5)
  // abc(3). Closed: c (no extension keeps 8), ac, bc, abc. a is not closed
  // (ac has the same support), nor b, nor ab (abc ties it).
  std::vector<Transaction> window = PaperWindow(12);
  MiningOutput all = kEclat.Mine(window, 3);
  MiningOutput closed = FilterClosed(all);
  EXPECT_TRUE(closed.Contains(Itemset{kC}));
  EXPECT_TRUE(closed.Contains(Itemset{kA, kC}));
  EXPECT_TRUE(closed.Contains(Itemset{kB, kC}));
  EXPECT_TRUE(closed.Contains(Itemset{kA, kB, kC}));
  EXPECT_FALSE(closed.Contains(Itemset{kA}));
  EXPECT_FALSE(closed.Contains(Itemset{kB}));
  EXPECT_FALSE(closed.Contains(Itemset{kA, kB}));
  EXPECT_EQ(closed.size(), 4u);
}

TEST(ClosedTest, ClosedSetsHaveNoEqualSupportSuperset) {
  Rng rng(7);
  std::vector<Transaction> window = RandomWindow(&rng, 60, 8, 0.35);
  MiningOutput all = kEclat.Mine(window, 4);
  MiningOutput closed = FilterClosed(all);
  for (const FrequentItemset& f : closed.itemsets()) {
    for (const FrequentItemset& g : all.itemsets()) {
      if (f.itemset.IsStrictSubsetOf(g.itemset)) {
        EXPECT_LT(g.support, f.support)
            << g.itemset.ToString() << " closes " << f.itemset.ToString();
      }
    }
  }
}

TEST(ClosedTest, ExpandClosedRecoversAllFrequent) {
  Rng rng(11);
  for (int round = 0; round < 6; ++round) {
    std::vector<Transaction> window = RandomWindow(&rng, 50, 8, 0.3);
    Support c = static_cast<Support>(rng.UniformInt(3, 8));
    MiningOutput all = kEclat.Mine(window, c);
    MiningOutput closed = FilterClosed(all);
    MiningOutput expanded = ExpandClosed(closed);
    EXPECT_TRUE(expanded.SameAs(all)) << "round " << round << " C=" << c;
  }
}

TEST(ClosedTest, ClosedMinerEqualsFilterPipeline) {
  std::vector<Transaction> window = PaperWindow(12);
  ClosedMiner miner;
  MiningOutput direct = miner.Mine(window, 3);
  MiningOutput pipeline = FilterClosed(kEclat.Mine(window, 3));
  EXPECT_TRUE(direct.SameAs(pipeline));
}

TEST(RulesTest, ConfidenceComputedFromSupports) {
  std::vector<Transaction> window = PaperWindow(12);
  MiningOutput all = kEclat.Mine(window, 3);
  std::vector<AssociationRule> rules = GenerateRules(all, 0.0);
  // Find a => c: support(ac)/support(a) = 5/5 = 1.
  bool found = false;
  for (const AssociationRule& r : rules) {
    if (r.antecedent == (Itemset{kA}) && r.consequent == (Itemset{kC})) {
      EXPECT_DOUBLE_EQ(r.confidence, 1.0);
      EXPECT_EQ(r.support, 5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RulesTest, MinConfidenceFilters) {
  std::vector<Transaction> window = PaperWindow(12);
  MiningOutput all = kEclat.Mine(window, 3);
  std::vector<AssociationRule> strict = GenerateRules(all, 0.9);
  for (const AssociationRule& r : strict) {
    EXPECT_GE(r.confidence, 0.9 - 1e-9);
  }
  std::vector<AssociationRule> loose = GenerateRules(all, 0.1);
  EXPECT_GE(loose.size(), strict.size());
}

TEST(RulesTest, RulesSortedByConfidence) {
  std::vector<Transaction> window = PaperWindow(12);
  std::vector<AssociationRule> rules =
      GenerateRules(kEclat.Mine(window, 3), 0.0);
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_GE(rules[i - 1].confidence, rules[i].confidence);
  }
}

}  // namespace
}  // namespace butterfly
