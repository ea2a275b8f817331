#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "datagen/fimi_io.h"
#include "datagen/profiles.h"
#include "datagen/quest_generator.h"
#include "datagen/zipf.h"
#include "mining/support.h"

namespace butterfly {
namespace {

TEST(ZipfTest, SamplesWithinRange) {
  Rng rng(1);
  ZipfSampler zipf(50, 1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Sample(&rng), 50u);
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng(2);
  ZipfSampler zipf(100, 1.2);
  size_t head = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 10) ++head;
  }
  // With s = 1.2 the first 10 of 100 ranks carry well over half the mass.
  EXPECT_GT(head, static_cast<size_t>(n / 2));
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  Rng rng(3);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(QuestConfigTest, ValidatesParameters) {
  QuestConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_items = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = QuestConfig();
  config.correlation = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = QuestConfig();
  config.corruption_mean = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = QuestConfig();
  config.avg_transaction_len = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(QuestGeneratorTest, RejectsInvalidConfig) {
  QuestConfig config;
  config.num_transactions = 0;
  Result<std::vector<Transaction>> r = GenerateQuest(config);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(QuestGeneratorTest, ProducesRequestedCount) {
  QuestConfig config;
  config.num_transactions = 500;
  config.num_items = 100;
  auto r = GenerateQuest(config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 500u);
}

TEST(QuestGeneratorTest, RecordsAreNonEmptyWithValidItems) {
  QuestConfig config;
  config.num_transactions = 1000;
  config.num_items = 80;
  auto r = GenerateQuest(config);
  ASSERT_TRUE(r.ok());
  for (const Transaction& t : *r) {
    EXPECT_FALSE(t.items.empty());
    for (Item i : t.items) EXPECT_LT(i, 80u);
  }
}

TEST(QuestGeneratorTest, TidsAreSequential) {
  QuestConfig config;
  config.num_transactions = 50;
  auto r = GenerateQuest(config);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < r->size(); ++i) {
    EXPECT_EQ((*r)[i].tid, i + 1);
  }
}

TEST(QuestGeneratorTest, DeterministicForFixedSeed) {
  QuestConfig config;
  config.num_transactions = 200;
  config.seed = 77;
  auto a = GenerateQuest(config);
  auto b = GenerateQuest(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(QuestGeneratorTest, SeedChangesOutput) {
  QuestConfig config;
  config.num_transactions = 200;
  config.seed = 1;
  auto a = GenerateQuest(config);
  config.seed = 2;
  auto b = GenerateQuest(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
}

TEST(QuestGeneratorTest, AverageLengthNearTarget) {
  QuestConfig config;
  config.num_transactions = 4000;
  config.avg_transaction_len = 6.0;
  config.num_items = 500;
  auto r = GenerateQuest(config);
  ASSERT_TRUE(r.ok());
  DatasetStats stats = ComputeStats(*r);
  // Corruption trims some pattern items, so allow a generous band.
  EXPECT_GT(stats.avg_transaction_len, 3.0);
  EXPECT_LT(stats.avg_transaction_len, 9.0);
}

TEST(QuestGeneratorTest, PlantedPatternsCreateCooccurrence) {
  // With low corruption, planted patterns should appear as itemsets whose
  // support clearly exceeds the product-of-marginals expectation.
  QuestConfig config;
  config.num_transactions = 3000;
  config.num_items = 200;
  config.num_patterns = 20;
  config.avg_pattern_len = 3;
  config.corruption_mean = 0.2;
  config.seed = 5;
  auto pool = GenerateQuestPatterns(config);
  auto data = GenerateQuest(config);
  ASSERT_TRUE(pool.ok() && data.ok());

  // Pick the heaviest planted pattern with >= 2 items.
  size_t best = pool->patterns.size();
  double best_weight = 0;
  for (size_t i = 0; i < pool->patterns.size(); ++i) {
    if (pool->patterns[i].size() >= 2 && pool->weights[i] > best_weight) {
      best = i;
      best_weight = pool->weights[i];
    }
  }
  ASSERT_LT(best, pool->patterns.size());
  Support observed = CountSupport(*data, pool->patterns[best]);
  EXPECT_GT(observed, 0);
}

TEST(ProfilesTest, NamesMatchPaper) {
  EXPECT_EQ(ProfileName(DatasetProfile::kBmsWebView1), "WebView1");
  EXPECT_EQ(ProfileName(DatasetProfile::kBmsPos), "POS");
}

TEST(ProfilesTest, WebView1ShapeMatchesPublishedStats) {
  auto r = GenerateProfile(DatasetProfile::kBmsWebView1, 8000);
  ASSERT_TRUE(r.ok());
  DatasetStats stats = ComputeStats(*r);
  EXPECT_EQ(stats.num_transactions, 8000u);
  EXPECT_LE(stats.num_distinct_items, 497u);
  EXPECT_GT(stats.avg_transaction_len, 1.5);
  EXPECT_LT(stats.avg_transaction_len, 4.0);
}

TEST(ProfilesTest, PosShapeMatchesPublishedStats) {
  auto r = GenerateProfile(DatasetProfile::kBmsPos, 8000);
  ASSERT_TRUE(r.ok());
  DatasetStats stats = ComputeStats(*r);
  EXPECT_LE(stats.num_distinct_items, 1657u);
  EXPECT_GT(stats.avg_transaction_len, 4.0);
  EXPECT_LT(stats.avg_transaction_len, 9.0);
}

TEST(ProfilesTest, DefaultSizesMatchPublishedCounts) {
  EXPECT_EQ(ProfileConfig(DatasetProfile::kBmsWebView1).num_transactions,
            59602u);
  EXPECT_EQ(ProfileConfig(DatasetProfile::kBmsPos).num_transactions, 515597u);
}

TEST(FimiIoTest, ParsesBasicContent) {
  auto r = ParseFimi("1 2 3\n4 5\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].items, (Itemset{1, 2, 3}));
  EXPECT_EQ((*r)[1].items, (Itemset{4, 5}));
  EXPECT_EQ((*r)[0].tid, 1u);
  EXPECT_EQ((*r)[1].tid, 2u);
}

TEST(FimiIoTest, SkipsBlankLines) {
  auto r = ParseFimi("1 2\n\n3\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(FimiIoTest, RejectsMalformedTokens) {
  auto r = ParseFimi("1 x 3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FimiIoTest, RejectsOutOfRangeItemsWithLineNumber) {
  // 21 digits (past 2^64), 2^32 (used to wrap to item 0) and 2^32 - 1
  // (used to become kInvalidItem) are all refused, never thrown or wrapped.
  for (const char* token :
       {"123456789012345678901", "4294967296", "4294967295"}) {
    auto r = ParseFimi(std::string("1 2\n3 ") + token + "\n");
    ASSERT_FALSE(r.ok()) << token;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << token;
    EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(FimiIoTest, AcceptsLargestValidItem) {
  auto r = ParseFimi("4294967294 0\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].items, (Itemset{0, 4294967294u}));
}

TEST(FimiIoTest, LoadMissingFileIsIOError) {
  auto r = LoadFimiFile("/nonexistent/path/data.dat");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(FimiIoTest, SaveLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/bfly_fimi_roundtrip.dat";
  std::vector<Transaction> dataset = {
      Transaction(1, Itemset{3, 1}),
      Transaction(2, Itemset{7}),
  };
  ASSERT_TRUE(SaveFimiFile(path, dataset).ok());
  auto r = LoadFimiFile(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].items, (Itemset{1, 3}));
  EXPECT_EQ((*r)[1].items, (Itemset{7}));
  std::remove(path.c_str());
}

TEST(ComputeStatsTest, HandComputedValues) {
  std::vector<Transaction> dataset = {
      Transaction(1, Itemset{1, 2}),
      Transaction(2, Itemset{2, 3, 4}),
      Transaction(3, Itemset{2}),
  };
  DatasetStats stats = ComputeStats(dataset);
  EXPECT_EQ(stats.num_transactions, 3u);
  EXPECT_EQ(stats.num_distinct_items, 4u);
  EXPECT_DOUBLE_EQ(stats.avg_transaction_len, 2.0);
  EXPECT_EQ(stats.max_transaction_len, 3u);
}

}  // namespace
}  // namespace butterfly
