#include "moment/moment.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/quest_generator.h"
#include "mining/closed.h"
#include "mining/eclat.h"
#include "paper_stream.h"

namespace butterfly {
namespace {

using butterfly::testing::kA;
using butterfly::testing::kB;
using butterfly::testing::kC;
using butterfly::testing::PaperStream;

// Reference: re-mine the window contents from scratch.
MiningOutput StaticClosed(const std::deque<Transaction>& window,
                          Support min_support) {
  ClosedMiner miner;
  return miner.Mine({window.begin(), window.end()}, min_support);
}

std::vector<Transaction> RandomStream(Rng* rng, size_t n, Item alphabet,
                                      double density) {
  std::vector<Transaction> stream;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < alphabet; ++a) {
      if (rng->Bernoulli(density)) items.push_back(a);
    }
    if (items.empty()) items.push_back(static_cast<Item>(rng->UniformInt(0, alphabet - 1)));
    stream.emplace_back(i + 1, Itemset(std::move(items)));
  }
  return stream;
}

TEST(MomentTest, EmptyMinerHasNoOutput) {
  MomentMiner miner(4, 2);
  EXPECT_TRUE(miner.GetClosedFrequent().empty());
  EXPECT_EQ(miner.Stats().total(), 0u);
}

TEST(MomentTest, MatchesStaticCloserOnPaperStream) {
  MomentMiner miner(8, 4);  // the paper's C = 4 example
  for (const Transaction& t : PaperStream()) {
    miner.Append(t);
    MiningOutput incremental = miner.GetClosedFrequent();
    MiningOutput expected = StaticClosed(miner.window().transactions(), 4);
    EXPECT_TRUE(incremental.SameAs(expected))
        << miner.window().Label() << "\nexpected:\n"
        << expected.ToString() << "actual:\n"
        << incremental.ToString();
  }
}

TEST(MomentTest, PaperWindowClosedSupports) {
  MomentMiner miner(8, 4);
  std::vector<Transaction> stream = PaperStream();
  for (size_t i = 0; i < 11; ++i) miner.Append(stream[i]);
  // Ds(11,8): closed frequent at C=4 are c(8), ac(6), bc(6), abc(4).
  MiningOutput out = miner.GetClosedFrequent();
  EXPECT_EQ(out.SupportOf(Itemset{kC}), 8);
  EXPECT_EQ(out.SupportOf(Itemset{kA, kC}), 6);
  EXPECT_EQ(out.SupportOf(Itemset{kB, kC}), 6);
  EXPECT_EQ(out.SupportOf(Itemset{kA, kB, kC}), 4);

  miner.Append(stream[11]);
  // Ds(12,8): abc falls to 3 < C and drops out.
  out = miner.GetClosedFrequent();
  EXPECT_EQ(out.SupportOf(Itemset{kC}), 8);
  EXPECT_EQ(out.SupportOf(Itemset{kA, kC}), 5);
  EXPECT_EQ(out.SupportOf(Itemset{kB, kC}), 5);
  EXPECT_FALSE(out.SupportOf(Itemset{kA, kB, kC}).has_value());
}

TEST(MomentTest, GetAllFrequentMatchesEclat) {
  MomentMiner miner(8, 3);
  EclatMiner eclat;
  for (const Transaction& t : PaperStream()) {
    miner.Append(t);
    MiningOutput expected =
        eclat.Mine(miner.window().Snapshot(), 3);
    EXPECT_TRUE(miner.GetAllFrequent().SameAs(expected))
        << miner.window().Label();
  }
}

// The heavy property check: on random streams, after every slide the CET's
// closed set equals a from-scratch closed mining of the window.
struct MomentPropertyCase {
  uint64_t seed;
  size_t window;
  Support min_support;
  Item alphabet;
  double density;
};

class MomentPropertyTest
    : public ::testing::TestWithParam<MomentPropertyCase> {};

TEST_P(MomentPropertyTest, AlwaysMatchesStaticMiner) {
  const MomentPropertyCase& param = GetParam();
  Rng rng(param.seed);
  std::vector<Transaction> stream =
      RandomStream(&rng, 3 * param.window, param.alphabet, param.density);
  MomentMiner miner(param.window, param.min_support);
  for (const Transaction& t : stream) {
    miner.Append(t);
    MiningOutput expected =
        StaticClosed(miner.window().transactions(), param.min_support);
    ASSERT_TRUE(miner.GetClosedFrequent().SameAs(expected))
        << "seed=" << param.seed << " at " << miner.window().Label();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomStreams, MomentPropertyTest,
    ::testing::Values(MomentPropertyCase{1, 10, 2, 6, 0.30},
                      MomentPropertyCase{2, 16, 3, 8, 0.25},
                      MomentPropertyCase{3, 16, 4, 8, 0.40},
                      MomentPropertyCase{4, 24, 5, 10, 0.20},
                      MomentPropertyCase{5, 24, 2, 5, 0.50},
                      MomentPropertyCase{6, 32, 6, 12, 0.15},
                      MomentPropertyCase{7, 12, 1, 6, 0.35},
                      MomentPropertyCase{8, 40, 8, 7, 0.30}));

TEST(MomentTest, SupportOfAnswersFromTree) {
  MomentMiner miner(8, 3);
  for (const Transaction& t : PaperStream()) miner.Append(t);
  // Ds(12,8) at C=3.
  EXPECT_EQ(miner.SupportOf(Itemset{kC}), 8);
  EXPECT_EQ(miner.SupportOf(Itemset{kA}), 5);
  EXPECT_EQ(miner.SupportOf(Itemset{kA, kB}), 3);
  EXPECT_EQ(miner.SupportOf(Itemset{kA, kB, kC}), 3);
  EXPECT_FALSE(miner.SupportOf(Itemset{99}).has_value());

  // T(∅) is the window size, not the largest closed support (2 here).
  MomentMiner alternating(4, 1);
  for (Item item : {1, 2, 1, 2}) {
    alternating.Append(Transaction(0, Itemset{item}));
  }
  EXPECT_EQ(alternating.SupportOf(Itemset{}), 4);
  // Below the threshold ∅ is infrequent, like any other itemset.
  MomentMiner filling(4, 3);
  filling.Append(Transaction(0, Itemset{1}));
  filling.Append(Transaction(0, Itemset{2}));
  EXPECT_FALSE(filling.SupportOf(Itemset{}).has_value());
}

TEST(MomentTest, SupportOfMatchesExpansionOnRandomStreams) {
  Rng rng(21);
  MomentMiner miner(16, 3);
  for (const Transaction& t : RandomStream(&rng, 48, 8, 0.3)) {
    miner.Append(t);
    MiningOutput all = miner.GetAllFrequent();
    for (const FrequentItemset& f : all.itemsets()) {
      EXPECT_EQ(miner.SupportOf(f.itemset), f.support);
    }
  }
}

TEST(MomentTest, SelfCheckPassesThroughPaperStream) {
  MomentMiner miner(8, 4);
  for (const Transaction& t : PaperStream()) {
    miner.Append(t);
    Status status = miner.Validate();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(MomentTest, SelfCheckPassesOnRandomStreams) {
  Rng rng(31);
  for (int round = 0; round < 4; ++round) {
    size_t window = 8 + 8 * round;
    MomentMiner miner(window, 2 + round);
    for (const Transaction& t :
         RandomStream(&rng, 3 * window, 7 + round, 0.3)) {
      miner.Append(t);
      Status status = miner.Validate();
      ASSERT_TRUE(status.ok()) << "round " << round << ": "
                               << status.ToString();
    }
  }
}

TEST(MomentTest, StatsCountNodeTaxonomy) {
  MomentMiner miner(8, 4);
  for (const Transaction& t : PaperStream()) miner.Append(t);
  MomentStats stats = miner.Stats();
  MiningOutput closed = miner.GetClosedFrequent();
  EXPECT_EQ(stats.closed, closed.size());
  EXPECT_GT(stats.total(), stats.closed);  // boundary nodes exist
}

TEST(MomentTest, WindowSmallerThanSupportThreshold) {
  MomentMiner miner(3, 10);  // C above the window size: nothing frequent
  Rng rng(5);
  for (const Transaction& t : RandomStream(&rng, 12, 5, 0.5)) {
    miner.Append(t);
    EXPECT_TRUE(miner.GetClosedFrequent().empty());
  }
}

TEST(MomentTest, MinSupportOneTracksEveryCooccurrence) {
  MomentMiner miner(4, 1);
  Rng rng(9);
  EclatMiner eclat;
  for (const Transaction& t : RandomStream(&rng, 20, 5, 0.4)) {
    miner.Append(t);
    MiningOutput expected = eclat.Mine(miner.window().Snapshot(), 1);
    ASSERT_TRUE(miner.GetAllFrequent().SameAs(expected));
  }
}

TEST(MomentTest, RepeatedIdenticalTransactions) {
  MomentMiner miner(5, 3);
  for (int i = 0; i < 12; ++i) {
    miner.Append(Transaction(0, Itemset{1, 2, 3}));
    if (miner.window().size() >= 3) {
      MiningOutput out = miner.GetClosedFrequent();
      // The single closed frequent itemset is {1,2,3} at full window support.
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out.SupportOf(Itemset{1, 2, 3}),
                static_cast<Support>(miner.window().size()));
    }
  }
}

TEST(MomentTest, AlternatingDisjointTransactions) {
  MomentMiner miner(6, 2);
  ClosedMiner reference;
  for (int i = 0; i < 20; ++i) {
    Itemset items = (i % 2 == 0) ? Itemset{1, 2} : Itemset{3, 4};
    miner.Append(Transaction(0, items));
    MiningOutput expected = reference.Mine(miner.window().Snapshot(), 2);
    ASSERT_TRUE(miner.GetClosedFrequent().SameAs(expected));
  }
}

}  // namespace
}  // namespace butterfly
