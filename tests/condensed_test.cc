#include <gtest/gtest.h>

#include "common/rng.h"
#include "inference/ndi.h"
#include "mining/eclat.h"
#include "paper_stream.h"

namespace butterfly {
namespace {

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

TEST(NdiTest, SingletonsAreAlwaysNonDerivable) {
  EclatMiner eclat;
  std::vector<Transaction> window = PaperWindow(12);
  MiningOutput all = eclat.Mine(window, 1);
  MiningOutput ndi = FilterNonDerivable(all, 8);
  for (const FrequentItemset& f : all.itemsets()) {
    if (f.itemset.size() == 1) {
      EXPECT_TRUE(ndi.Contains(f.itemset)) << f.itemset.ToString();
    }
  }
}

TEST(NdiTest, DerivableItemsetExcluded) {
  // Window where every record with item 1 also has item 2: T(12) = T(1), so
  // {1,2} is derivable (anchored at {1}: T(12) <= T(1); at {2}... the exact
  // tightness comes from both directions).
  std::vector<Transaction> window;
  for (int i = 0; i < 5; ++i) window.emplace_back(0, Itemset{1, 2});
  for (int i = 0; i < 3; ++i) window.emplace_back(0, Itemset{2});
  EclatMiner eclat;
  MiningOutput all = eclat.Mine(window, 1);
  MiningOutput ndi = FilterNonDerivable(all, 8);
  EXPECT_FALSE(ndi.Contains(Itemset{1, 2}));
  EXPECT_TRUE(ndi.Contains(Itemset{1}));
  EXPECT_TRUE(ndi.Contains(Itemset{2}));
}

TEST(NdiTest, ExpandRecoversAllFrequentExactly) {
  Rng rng(11);
  EclatMiner eclat;
  for (int round = 0; round < 8; ++round) {
    std::vector<Transaction> window = RandomWindow(&rng, 40, 7, 0.4);
    Support c = static_cast<Support>(rng.UniformInt(2, 8));
    MiningOutput all = eclat.Mine(window, c);
    MiningOutput ndi = FilterNonDerivable(all, static_cast<Support>(window.size()));
    MiningOutput expanded =
        ExpandNonDerivable(ndi, static_cast<Support>(window.size()));
    EXPECT_TRUE(expanded.SameAs(all))
        << "round " << round << " C=" << c << "\nNDI:\n"
        << ndi.ToString();
  }
}

TEST(NdiTest, CondensedRepresentationIsNeverLarger) {
  Rng rng(13);
  EclatMiner eclat;
  std::vector<Transaction> window = RandomWindow(&rng, 60, 8, 0.45);
  MiningOutput all = eclat.Mine(window, 4);
  MiningOutput ndi = FilterNonDerivable(all, 60);
  EXPECT_LE(ndi.size(), all.size());
}

TEST(NdiTest, DerivabilityBoundsContainTruth) {
  Rng rng(17);
  EclatMiner eclat;
  std::vector<Transaction> window = RandomWindow(&rng, 50, 7, 0.4);
  MiningOutput all = eclat.Mine(window, 2);
  for (const FrequentItemset& f : all.itemsets()) {
    if (f.itemset.size() < 2) continue;
    Interval bound = DerivabilityBounds(all, f.itemset, 50);
    EXPECT_TRUE(bound.Contains(f.support)) << f.itemset.ToString();
  }
}

TEST(NdiTest, DeepItemsetsAreDerivable) {
  // Calders & Goethals: every itemset of size > log2(|D|) is derivable. On
  // a tiny identical-record window, multi-item sets collapse quickly.
  std::vector<Transaction> window;
  for (int i = 0; i < 4; ++i) window.emplace_back(0, Itemset{1, 2, 3, 4});
  EclatMiner eclat;
  MiningOutput all = eclat.Mine(window, 1);
  MiningOutput ndi = FilterNonDerivable(all, 4);
  // T(X) = 4 for every X; any 2-itemset is derivable: T(12) >= T(1)+T(2)-T(∅)
  // = 4 and <= min(T(1),T(2)) = 4.
  for (const FrequentItemset& f : ndi.itemsets()) {
    EXPECT_EQ(f.itemset.size(), 1u) << f.itemset.ToString();
  }
}

}  // namespace
}  // namespace butterfly
