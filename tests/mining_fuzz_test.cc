/// Larger-scale randomized differential testing of the mining substrate:
/// Eclat agrees with the exhaustive oracle across a parameter grid, the
/// condensed representations (closed / non-derivable) relate to the full
/// frequent collection exactly as theory says, and the three stream miners
/// (bitmap+arena Moment, the map-CET reference, recompute-from-scratch)
/// stay bit-identical across window slides — including concept drift,
/// partial window fill, and item universes past one bitmap word.

#include <gtest/gtest.h>

#include "brute_force.h"
#include "common/rng.h"
#include "datagen/drift.h"
#include "inference/ndi.h"
#include "mining/closed.h"
#include "mining/eclat.h"
#include "moment/map_cet_miner.h"
#include "moment/moment.h"
#include "moment/recompute_miner.h"

namespace butterfly {
namespace {

struct FuzzCase {
  uint64_t seed;
  size_t records;
  Item alphabet;
  double density;
  Support min_support;
};

std::vector<Transaction> RandomWindow(const FuzzCase& param) {
  Rng rng(param.seed);
  std::vector<Transaction> window;
  for (size_t i = 0; i < param.records; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < param.alphabet; ++a) {
      if (rng.Bernoulli(param.density)) items.push_back(a);
    }
    if (items.empty()) {
      items.push_back(static_cast<Item>(rng.UniformInt(0, param.alphabet - 1)));
    }
    window.emplace_back(i + 1, Itemset(std::move(items)));
  }
  return window;
}

class MiningFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(MiningFuzzTest, EclatMatchesBruteForce) {
  std::vector<Transaction> window = RandomWindow(GetParam());
  EclatMiner eclat;
  MiningOutput expected =
      butterfly::testing::BruteForceFrequent(window, GetParam().min_support);
  EXPECT_TRUE(eclat.Mine(window, GetParam().min_support).SameAs(expected));
}

TEST_P(MiningFuzzTest, CondensedRepresentationHierarchy) {
  std::vector<Transaction> window = RandomWindow(GetParam());
  EclatMiner eclat;
  MiningOutput all = eclat.Mine(window, GetParam().min_support);
  MiningOutput closed = FilterClosed(all);
  MiningOutput ndi =
      FilterNonDerivable(all, static_cast<Support>(window.size()));

  // closed ⊆ all, with matching supports.
  for (const FrequentItemset& c : closed.itemsets()) {
    EXPECT_EQ(all.SupportOf(c.itemset), c.support) << c.itemset.ToString();
  }
  EXPECT_LE(closed.size(), all.size());
  EXPECT_LE(ndi.size(), all.size());
}

TEST_P(MiningFuzzTest, BothExpansionsInvertTheirFilters) {
  std::vector<Transaction> window = RandomWindow(GetParam());
  EclatMiner eclat;
  MiningOutput all = eclat.Mine(window, GetParam().min_support);
  EXPECT_TRUE(ExpandClosed(FilterClosed(all)).SameAs(all));
  Support n = static_cast<Support>(window.size());
  EXPECT_TRUE(ExpandNonDerivable(FilterNonDerivable(all, n), n).SameAs(all));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MiningFuzzTest,
    ::testing::Values(FuzzCase{101, 60, 10, 0.20, 4},
                      FuzzCase{102, 80, 8, 0.30, 6},
                      FuzzCase{103, 50, 12, 0.15, 3},
                      FuzzCase{104, 100, 6, 0.40, 10},
                      FuzzCase{105, 40, 9, 0.35, 5},
                      FuzzCase{106, 120, 7, 0.25, 8},
                      FuzzCase{107, 70, 10, 0.30, 2},
                      FuzzCase{108, 90, 5, 0.50, 12},
                      FuzzCase{109, 30, 14, 0.20, 3},
                      FuzzCase{110, 150, 8, 0.20, 6}));

// ---------------------------------------------------------------------------
// Stream-miner equivalence: the bitmap+arena MomentMiner must stay
// bit-identical to the map-CET reference on every slide (same closed
// itemsets, same supports, same canonical order), and both must agree with
// re-mining the window from scratch at checkpoints. The grid deliberately
// includes partial fill (checks start from the first record), item alphabets
// past one 64-bit bitmap word, and windows past 64 slots.
// ---------------------------------------------------------------------------

struct StreamCase {
  uint64_t seed;
  size_t window;     ///< H; cases > 64 exercise multi-word slot bitmaps
  size_t records;    ///< stream length (> window, so eviction is exercised)
  Item alphabet;     ///< cases > 64 exercise dense-id growth and recycling
  double density;
  Support min_support;
};

std::vector<Transaction> RandomStream(const StreamCase& param) {
  Rng rng(param.seed);
  std::vector<Transaction> stream;
  for (size_t i = 0; i < param.records; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < param.alphabet; ++a) {
      if (rng.Bernoulli(param.density)) items.push_back(a);
    }
    if (items.empty()) {
      items.push_back(static_cast<Item>(rng.UniformInt(0, param.alphabet - 1)));
    }
    stream.emplace_back(i + 1, Itemset(std::move(items)));
  }
  return stream;
}

/// Same itemsets, same supports, same (canonical) order.
::testing::AssertionResult IdenticalInOrder(const MiningOutput& got,
                                            const MiningOutput& ref) {
  if (got.size() != ref.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " itemsets, expected " << ref.size();
  }
  for (size_t k = 0; k < got.size(); ++k) {
    const FrequentItemset& g = got.itemsets()[k];
    const FrequentItemset& r = ref.itemsets()[k];
    if (!(g == r)) {
      return ::testing::AssertionFailure()
             << "entry " << k << " is " << g.itemset.ToString() << ":"
             << g.support << ", expected " << r.itemset.ToString() << ":"
             << r.support;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Drives all three stream miners over \p stream, requiring bit-identical
/// closed output on every slide, Moment's output walk identical to the
/// expansion of the map CET's closed sets on every slide, and recompute
/// agreement every \p recompute_every slides. Covers partial fill: checks
/// run from record 1.
void CheckStreamEquivalence(const std::vector<Transaction>& stream,
                            size_t window, Support min_support,
                            size_t recompute_every) {
  MomentMiner moment(window, min_support);
  MapCetMiner map_cet(window, min_support);
  RecomputeStreamMiner recompute(window, min_support);
  for (size_t i = 0; i < stream.size(); ++i) {
    moment.Append(stream[i]);
    map_cet.Append(stream[i]);
    recompute.Append(stream[i]);
    MiningOutput got = moment.GetClosedFrequent();
    MiningOutput ref = map_cet.GetClosedFrequent();
    ASSERT_TRUE(IdenticalInOrder(got, ref))
        << "bitmap+arena diverged from map CET at record " << i;
    ASSERT_TRUE(IdenticalInOrder(moment.GetAllFrequent(), ExpandClosed(ref)))
        << "output walk diverged from the closed expansion at record " << i;
    if (i % recompute_every == 0 || i + 1 == stream.size()) {
      ASSERT_TRUE(got.SameAs(recompute.GetClosedFrequent()))
          << "incremental miners diverged from re-mining at record " << i;
      Status status = moment.Validate();
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }
}

class StreamEquivalenceTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamEquivalenceTest, BitIdenticalAcrossSlides) {
  const StreamCase& param = GetParam();
  CheckStreamEquivalence(RandomStream(param), param.window, param.min_support,
                         /*recompute_every=*/7);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamEquivalenceTest,
    ::testing::Values(
        // Small dense windows: heavy CET churn, evictions at every slide.
        StreamCase{201, 20, 120, 8, 0.35, 4},
        StreamCase{202, 12, 100, 6, 0.45, 3},
        // Window larger than the stream prefix: queries during partial fill.
        StreamCase{203, 64, 90, 10, 0.25, 5},
        // Window > 64 slots: tidset bitmaps span multiple 64-bit words.
        StreamCase{204, 100, 260, 9, 0.22, 8},
        StreamCase{205, 130, 300, 7, 0.30, 12},
        // Alphabet > 64 items: the dense item remap outgrows one word's
        // worth of ids and recycles them as items leave the window.
        StreamCase{206, 40, 200, 90, 0.04, 2},
        StreamCase{207, 80, 240, 120, 0.03, 2}));

TEST(StreamEquivalenceTest, BitIdenticalUnderConceptDrift) {
  // The latent pattern pool rotates mid-stream: items dominating the early
  // regime drain out of the window entirely while new ones enter, stressing
  // row recycling in the bitmap index and node churn in both CETs.
  DriftConfig config;
  config.before.num_transactions = 400;
  config.before.num_items = 60;
  config.before.avg_transaction_len = 6;
  config.before.num_patterns = 12;
  config.before.avg_pattern_len = 3;
  config.before.seed = 31;
  config.after = config.before;
  config.after.seed = 77;
  config.drift_start = 120;
  config.drift_span = 150;
  config.num_transactions = 400;
  auto stream = GenerateDriftStream(config);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  CheckStreamEquivalence(*stream, /*window=*/90, /*min_support=*/4,
                         /*recompute_every=*/13);
}

TEST(StreamEquivalenceTest, EvictionsAtPartialFillBoundary) {
  // The exact slide where the window first wraps is where the eviction
  // bit-flip protocol starts reusing slots; pin the transition by checking
  // every slide across it with a window of awkward (non-power-of-two) size.
  StreamCase param{208, 33, 70, 12, 0.30, 3};
  CheckStreamEquivalence(RandomStream(param), param.window, param.min_support,
                         /*recompute_every=*/1);
}

TEST(StreamEquivalenceTest, BlockedSubtreesCopyCopiedRuns) {
  // At H = 4 and C = 2 the window {0..4}, {0..4}, {1, 2}, {2} makes every
  // subset of {0..4} frequent, and 14 stored nodes unpromising. {0, 2} is
  // blocked by 1, so it copies {0, 2, 3}, {0, 2, 3, 4} and {0, 2, 4} from
  // the run under {0, 1, 2}. {2, 3} is blocked by 0, and its run under
  // {0, 2, 3} is one of those copies; {3} copies {3, 4} from {0, 3, 4}, a
  // copy of a copy. Noise records slide the block in and out.
  const Itemset all{0, 1, 2, 3, 4};
  std::vector<Transaction> stream;
  for (const Itemset& items :
       {Itemset{5}, Itemset{2, 6}, Itemset{1, 5}, all, all, Itemset{1, 2},
        Itemset{2}, Itemset{0, 3}, Itemset{5, 6}, Itemset{6}, all,
        Itemset{2, 3}, all, Itemset{0, 4}, Itemset{7}}) {
    stream.emplace_back(stream.size() + 1, items);
  }
  CheckStreamEquivalence(stream, /*window=*/4, /*min_support=*/2,
                         /*recompute_every=*/1);

  MomentMiner moment(/*window_capacity=*/4, /*min_support=*/2);
  for (size_t i = 0; i < 7; ++i) moment.Append(stream[i]);  // the block
  EXPECT_EQ(moment.Stats().unpromising_gateway, 14u);
  const MiningOutput output = moment.GetAllFrequent();
  EXPECT_EQ(output.size(), 31u);
  EXPECT_EQ(output.SupportOf(Itemset{2, 3, 4}), Support{2});
  EXPECT_EQ(output.SupportOf(Itemset{3, 4}), Support{2});
  EXPECT_EQ(output.SupportOf(Itemset{1, 2}), Support{3});
}

}  // namespace
}  // namespace butterfly
