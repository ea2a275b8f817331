#include "core/republish_cache.h"

#include <gtest/gtest.h>

#include "persist/serializer.h"

namespace butterfly {
namespace {

TEST(RepublishCacheTest, MissOnUnknownItemset) {
  RepublishCache cache;
  EXPECT_FALSE(cache.Lookup(Itemset{1}, 5).has_value());
}

TEST(RepublishCacheTest, HitWhileTrueSupportUnchanged) {
  RepublishCache cache;
  cache.Store(Itemset{1}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  auto hit = cache.Lookup(Itemset{1}, 5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sanitized_support, 7);
  EXPECT_DOUBLE_EQ(hit->variance, 4.0);
}

TEST(RepublishCacheTest, MissWhenTrueSupportChanges) {
  RepublishCache cache;
  cache.Store(Itemset{1}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  EXPECT_FALSE(cache.Lookup(Itemset{1}, 6).has_value());
}

TEST(RepublishCacheTest, StoreOverwrites) {
  RepublishCache cache;
  cache.Store(Itemset{1}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  cache.Store(Itemset{1}, RepublishCache::Entry{6, 9, 1.0, 4.0});
  EXPECT_FALSE(cache.Lookup(Itemset{1}, 5).has_value());
  auto hit = cache.Lookup(Itemset{1}, 6);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sanitized_support, 9);
}

TEST(RepublishCacheTest, SurvivesWithinIdleBudget) {
  RepublishCache cache(/*max_idle_epochs=*/3);
  cache.Store(Itemset{1}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  cache.NextEpoch();
  cache.NextEpoch();
  EXPECT_TRUE(cache.Lookup(Itemset{1}, 5).has_value());
}

TEST(RepublishCacheTest, PrunedAfterIdleBudget) {
  RepublishCache cache(/*max_idle_epochs=*/2);
  cache.Store(Itemset{1}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  for (int i = 0; i < 4; ++i) cache.NextEpoch();
  EXPECT_FALSE(cache.Lookup(Itemset{1}, 5).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RepublishCacheTest, LookupRefreshesIdleClock) {
  RepublishCache cache(/*max_idle_epochs=*/2);
  cache.Store(Itemset{1}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  for (int i = 0; i < 6; ++i) {
    cache.NextEpoch();
    ASSERT_TRUE(cache.Lookup(Itemset{1}, 5).has_value()) << "epoch " << i;
  }
}

TEST(RepublishCacheTest, RestoreKeepsItsOwnIdleBudget) {
  // The idle budget is a construction constant, not snapshot state: a
  // budget-4 cache restored from a budget-2 cache's snapshot still prunes
  // at 4.
  RepublishCache written(/*max_idle_epochs=*/2);
  written.Store(Itemset{1}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  persist::CheckpointWriter writer;
  written.Checkpoint(&writer);

  RepublishCache restored(/*max_idle_epochs=*/4);
  persist::CheckpointReader reader(writer.data());
  ASSERT_TRUE(restored.Restore(&reader).ok());
  ASSERT_EQ(restored.size(), 1u);
  // Idle for four epochs: past a budget of 2, within a budget of 4.
  for (int i = 0; i < 4; ++i) restored.NextEpoch();
  EXPECT_EQ(restored.size(), 1u);
  restored.NextEpoch();
  EXPECT_EQ(restored.size(), 0u);
}

TEST(RepublishCacheTest, IndependentEntries) {
  RepublishCache cache;
  cache.Store(Itemset{1}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  cache.Store(Itemset{2}, RepublishCache::Entry{8, 10, 0.0, 4.0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(Itemset{1}, 5)->sanitized_support, 7);
  EXPECT_EQ(cache.Lookup(Itemset{2}, 8)->sanitized_support, 10);
}

}  // namespace
}  // namespace butterfly
