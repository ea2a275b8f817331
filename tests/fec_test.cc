#include "core/fec.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace butterfly {
namespace {

MiningOutput MakeOutput(std::vector<std::pair<Itemset, Support>> entries) {
  MiningOutput out(2);
  for (auto& [itemset, support] : entries) out.Add(itemset, support);
  out.Seal();
  return out;
}

TEST(FecTest, GroupsBySupport) {
  MiningOutput out = MakeOutput({{Itemset{1}, 5},
                                 {Itemset{2}, 5},
                                 {Itemset{3}, 7},
                                 {Itemset{1, 2}, 5}});
  std::vector<Fec> fecs = PartitionIntoFecs(out);
  ASSERT_EQ(fecs.size(), 2u);
  EXPECT_EQ(fecs[0].support, 5);
  EXPECT_EQ(fecs[0].member_count, 3u);
  EXPECT_EQ(fecs[1].support, 7);
  EXPECT_EQ(fecs[1].member_count, 1u);
}

TEST(FecTest, StrictlyAscendingSupports) {
  MiningOutput out = MakeOutput({{Itemset{1}, 9},
                                 {Itemset{2}, 3},
                                 {Itemset{3}, 6},
                                 {Itemset{4}, 3}});
  std::vector<Fec> fecs = PartitionIntoFecs(out);
  ASSERT_EQ(fecs.size(), 3u);
  for (size_t i = 1; i < fecs.size(); ++i) {
    EXPECT_LT(fecs[i - 1].support, fecs[i].support);
  }
}

TEST(FecTest, OneFecCountsEveryMember) {
  MiningOutput out =
      MakeOutput({{Itemset{9}, 4}, {Itemset{1}, 4}, {Itemset{5}, 4}});
  std::vector<Fec> fecs = PartitionIntoFecs(out);
  ASSERT_EQ(fecs.size(), 1u);
  EXPECT_EQ(fecs[0].support, 4);
  EXPECT_EQ(fecs[0].member_count, 3u);
}

TEST(FecTest, UnsealedOutputCountsTheSameFecs) {
  // Supports out of order, and itemsets out of lexicographic order.
  MiningOutput unsealed(2);
  for (const auto& [itemset, support] :
       std::vector<std::pair<Itemset, Support>>{{Itemset{4}, 3},
                                                {Itemset{1, 2}, 9},
                                                {Itemset{2}, 3},
                                                {Itemset{1}, 9},
                                                {Itemset{3}, 6},
                                                {Itemset{2, 3}, 3}}) {
    unsealed.Add(itemset, support);
  }
  MiningOutput sealed = unsealed;
  sealed.Seal();
  const std::vector<Fec> from_unsealed = PartitionIntoFecs(unsealed);
  const std::vector<Fec> from_sealed = PartitionIntoFecs(sealed);
  ASSERT_EQ(from_unsealed.size(), 3u);
  ASSERT_EQ(from_sealed.size(), from_unsealed.size());
  for (size_t i = 0; i < from_sealed.size(); ++i) {
    EXPECT_EQ(from_unsealed[i].support, from_sealed[i].support) << i;
    EXPECT_EQ(from_unsealed[i].member_count, from_sealed[i].member_count)
        << i;
  }
  EXPECT_EQ(from_unsealed[0].support, 3);
  EXPECT_EQ(from_unsealed[0].member_count, 3u);
  EXPECT_EQ(from_unsealed[2].support, 9);
  EXPECT_EQ(from_unsealed[2].member_count, 2u);
}

TEST(FecTest, PartitionerViewMatchesPartitionAndIsReplacedByRebuild) {
  FecPartitioner partitioner;
  EXPECT_TRUE(partitioner.view().empty());
  for (const MiningOutput& out :
       {MakeOutput({{Itemset{1}, 5}, {Itemset{2}, 7}, {Itemset{1, 2}, 5}}),
        MakeOutput({{Itemset{3}, 4}})}) {
    partitioner.Rebuild(out);
    std::vector<Fec> expected = PartitionIntoFecs(out);
    ASSERT_EQ(partitioner.view().size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(partitioner.view()[i].support, expected[i].support);
      EXPECT_EQ(partitioner.view()[i].member_count, expected[i].member_count);
    }
  }
}

TEST(FecTest, EmptyOutputNoFecs) {
  MiningOutput out(2);
  out.Seal();
  EXPECT_TRUE(PartitionIntoFecs(out).empty());
}

TEST(FecTest, PartitionCoversEveryItemset) {
  MiningOutput out = MakeOutput({{Itemset{1}, 2},
                                 {Itemset{2}, 3},
                                 {Itemset{3}, 2},
                                 {Itemset{4}, 8}});
  std::vector<Fec> fecs = PartitionIntoFecs(out);
  size_t total = 0;
  for (const Fec& fec : fecs) total += fec.member_count;
  EXPECT_EQ(total, out.size());
}

// The partition as it was computed before supports were counted: sort the
// supports and run-length encode them.
std::vector<Fec> SortAndRunLength(const MiningOutput& output) {
  std::vector<Support> supports;
  for (const FrequentItemset& f : output.itemsets()) {
    supports.push_back(f.support);
  }
  std::sort(supports.begin(), supports.end());
  std::vector<Fec> fecs;
  for (Support support : supports) {
    if (fecs.empty() || fecs.back().support != support) {
      fecs.push_back(Fec{support, 0});
    }
    ++fecs.back().member_count;
  }
  return fecs;
}

TEST(FecTest, CountingMatchesSortAndRunLengthOnRandomOutputs) {
  Rng rng(11);
  for (int round = 0; round < 60; ++round) {
    const Support c = rng.UniformInt(1, 20);
    // Narrow ranges with many ties, and ranges up to the window limit.
    const Support top = round % 3 == 0 ? 65536 : c + rng.UniformInt(0, 300);
    MiningOutput out(c);
    const int64_t size = rng.UniformInt(0, 2000);
    for (int64_t i = 0; i < size; ++i) {
      out.Add(Itemset{static_cast<Item>(i)}, rng.UniformInt(c, top));
    }
    if (round % 3 == 0 && size > 1) {
      // Pin both ends of [C, 65,536].
      out.Add(Itemset{static_cast<Item>(size)}, c);
      out.Add(Itemset{static_cast<Item>(size + 1)}, 65536);
    }
    if (round % 2 == 0) out.Seal();
    const std::vector<Fec> counted = PartitionIntoFecs(out);
    const std::vector<Fec> sorted = SortAndRunLength(out);
    ASSERT_EQ(counted.size(), sorted.size()) << "round " << round;
    for (size_t i = 0; i < counted.size(); ++i) {
      EXPECT_EQ(counted[i].support, sorted[i].support) << round << " " << i;
      EXPECT_EQ(counted[i].member_count, sorted[i].member_count)
          << round << " " << i;
    }
  }
}

TEST(MaxAdjustableBiasTest, ClosedForm) {
  // βᵐ = √(ε t² − σ²).
  double bias = MaxAdjustableBias(100, 0.01, 4.0);
  EXPECT_NEAR(bias, std::sqrt(0.01 * 100.0 * 100.0 - 4.0), 1e-9);
}

TEST(MaxAdjustableBiasTest, ZeroWhenVarianceConsumesBudget) {
  EXPECT_DOUBLE_EQ(MaxAdjustableBias(10, 0.01, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(MaxAdjustableBias(10, 0.01, 1.0), 0.0);  // exactly zero
}

TEST(MaxAdjustableBiasTest, GrowsWithSupport) {
  double small = MaxAdjustableBias(30, 0.016, 5.0);
  double large = MaxAdjustableBias(300, 0.016, 5.0);
  EXPECT_GT(large, small);
}

}  // namespace
}  // namespace butterfly
