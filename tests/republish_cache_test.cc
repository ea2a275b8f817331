#include "core/republish_cache.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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

// The cache as a map keyed by itemset with the same idle rule: the
// behaviour of the hash-map cache that the sorted run replaced.
class CacheOracle {
 public:
  explicit CacheOracle(uint64_t budget) : budget_(budget) {}

  std::optional<RepublishCache::Entry> Lookup(const Itemset& s, Support t) {
    auto it = slots_.find(s);
    if (it == slots_.end() || it->second.entry.true_support != t) {
      return std::nullopt;
    }
    it->second.last_seen = epoch_;
    return it->second.entry;
  }
  void Store(const Itemset& s, const RepublishCache::Entry& e) {
    slots_[s] = Slot{e, epoch_};
  }
  void NextEpoch() {
    ++epoch_;
    if (epoch_ < budget_) return;
    std::erase_if(slots_, [&](const auto& kv) {
      return kv.second.last_seen < epoch_ - budget_;
    });
  }
  size_t size() const { return slots_.size(); }

  // The RPUB section the hash-map cache wrote: every entry, sorted.
  std::string Encoding() const {
    persist::CheckpointWriter writer;
    writer.Tag(persist::SectionTag('R', 'P', 'U', 'B'));
    writer.U64(epoch_);
    writer.U64(slots_.size());
    for (const auto& [itemset, slot] : slots_) {
      writer.WriteItemset(itemset);
      writer.I64(slot.entry.true_support);
      writer.I64(slot.entry.sanitized_support);
      writer.F64(slot.entry.bias);
      writer.F64(slot.entry.variance);
      writer.U64(slot.last_seen);
    }
    return writer.data();
  }

 private:
  struct Slot {
    RepublishCache::Entry entry;
    uint64_t last_seen = 0;
  };
  uint64_t budget_;
  uint64_t epoch_ = 0;
  std::map<Itemset, Slot> slots_;
};

std::string Encode(const RepublishCache& cache) {
  persist::CheckpointWriter writer;
  cache.Checkpoint(&writer);
  return writer.data();
}

// Random itemsets across the inline limit, over a small alphabet so that
// releases share keys from epoch to epoch.
std::vector<Itemset> RandomKeys(Rng* rng, size_t count) {
  std::vector<Itemset> keys;
  while (keys.size() < count) {
    std::vector<Item> items;
    const int64_t size = rng->UniformInt(1, 8);
    for (int64_t i = 0; i < size; ++i) {
      items.push_back(static_cast<Item>(rng->UniformInt(0, 9)));
    }
    keys.emplace_back(items);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TEST(RepublishCacheTest, MatchesTheMapOracleInAnyOrder) {
  for (uint64_t budget : {0u, 1u, 4u}) {
    for (bool canonical : {true, false}) {
      Rng rng(budget * 2 + (canonical ? 1 : 0));
      const std::vector<Itemset> universe = RandomKeys(&rng, 300);
      RepublishCache cache(budget);
      CacheOracle oracle(budget);
      for (int epoch = 0; epoch < 30; ++epoch) {
        // One release: a random subset of the keys, each looked up once and
        // stored on a miss; a few are looked up again after their store.
        std::vector<Itemset> release;
        for (const Itemset& s : universe) {
          if (rng.Bernoulli(0.5)) release.push_back(s);
        }
        if (!canonical) {
          for (size_t i = release.size(); i > 1; --i) {
            std::swap(release[i - 1],
                      release[static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int64_t>(i) - 1))]);
          }
        }
        for (const Itemset& s : release) {
          const Support t = rng.UniformInt(5, 7);
          const auto got = cache.Lookup(s, t);
          const auto want = oracle.Lookup(s, t);
          ASSERT_EQ(got.has_value(), want.has_value())
              << s.ToString() << " epoch " << epoch;
          if (got) {
            EXPECT_EQ(got->sanitized_support, want->sanitized_support);
            continue;
          }
          const RepublishCache::Entry entry{t, rng.UniformInt(0, 99), 0.5,
                                            2.0};
          cache.Store(s, entry);
          oracle.Store(s, entry);
          if (rng.Bernoulli(0.05)) {  // stored, then looked up again
            const auto again = cache.Lookup(s, t);
            ASSERT_TRUE(again.has_value()) << s.ToString();
            EXPECT_EQ(again->sanitized_support, entry.sanitized_support);
            oracle.Lookup(s, t);
          }
        }
        ASSERT_EQ(cache.size(), oracle.size()) << "epoch " << epoch;
        if (epoch % 7 == 3) {
          ASSERT_EQ(Encode(cache), oracle.Encoding()) << "epoch " << epoch;
        }
        cache.NextEpoch();
        oracle.NextEpoch();
        ASSERT_EQ(cache.size(), oracle.size()) << "epoch " << epoch;
      }
      EXPECT_EQ(Encode(cache), oracle.Encoding());
    }
  }
}

TEST(RepublishCacheTest, StoreThenLookupInOneEpoch) {
  RepublishCache cache;
  const Itemset wide = Itemset::FromSorted({1, 2, 3, 4, 5, 6, 7, 8});
  // In canonical order, then one key that sorts before the others.
  cache.Store(Itemset{2}, RepublishCache::Entry{5, 7, 0.0, 4.0});
  cache.Store(wide, RepublishCache::Entry{6, 8, 0.0, 4.0});
  cache.Store(Itemset{1}, RepublishCache::Entry{3, 4, 0.0, 4.0});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(Itemset{2}, 5)->sanitized_support, 7);
  EXPECT_EQ(cache.Lookup(Itemset{1}, 3)->sanitized_support, 4);
  EXPECT_EQ(cache.Lookup(wide, 6)->sanitized_support, 8);
  EXPECT_FALSE(cache.Lookup(Itemset{1, 2}, 5).has_value());
  cache.Store(Itemset{1}, RepublishCache::Entry{9, 10, 0.0, 4.0});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(Itemset{1}, 9)->sanitized_support, 10);
}

TEST(RepublishCacheTest, LooksUpBackwardAndForwardAcrossTheRun) {
  RepublishCache cache;
  std::vector<Itemset> keys;
  for (Item i = 0; i < 64; ++i) keys.push_back(Itemset{i, i + 100});
  for (const Itemset& s : keys) {
    cache.Store(s, RepublishCache::Entry{5, static_cast<Support>(s[0]), 0, 1});
  }
  cache.NextEpoch();
  // Far forward, back to the start, each key right after itself, and
  // missing keys between and beyond the stored ones.
  for (size_t i : {40u, 0u, 0u, 63u, 1u, 2u, 62u, 31u, 32u, 30u}) {
    const auto hit = cache.Lookup(keys[i], 5);
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->sanitized_support, static_cast<Support>(i));
    EXPECT_FALSE(cache.Lookup(Itemset{static_cast<Item>(i)}, 5).has_value());
    EXPECT_FALSE(
        cache.Lookup(Itemset{static_cast<Item>(i), 99}, 5).has_value());
  }
  EXPECT_FALSE(cache.Lookup(Itemset{1000}, 5).has_value());
  EXPECT_EQ(cache.Lookup(keys[0], 5)->sanitized_support, 0);
}

TEST(RepublishCacheTest, PrunesAtTheIdleEdge) {
  // A key last seen in epoch e survives NextEpoch calls while the epoch
  // stays within e + budget, whether it was stored in the epoch that just
  // ended or refreshed from the run by a lookup.
  for (uint64_t budget : {0u, 1u, 4u}) {
    for (bool refreshed : {false, true}) {
      RepublishCache cache(budget);
      const Itemset key{3, 9};
      if (refreshed) {
        cache.Store(key, RepublishCache::Entry{5, 7, 0.0, 4.0});
        // Keep it alive in the run through a refresh in every epoch.
        for (int i = 0; i < 3; ++i) {
          cache.NextEpoch();
          cache.Store(key, RepublishCache::Entry{5, 7, 0.0, 4.0});
        }
      } else {
        for (int i = 0; i < 3; ++i) cache.NextEpoch();
        cache.Store(key, RepublishCache::Entry{5, 7, 0.0, 4.0});
      }
      for (uint64_t idle = 1; idle <= budget + 1; ++idle) {
        cache.NextEpoch();
        const bool kept = idle <= budget;
        EXPECT_EQ(cache.size(), kept ? 1u : 0u)
            << "budget " << budget << " idle " << idle << " refreshed "
            << refreshed;
      }
    }
  }
}

TEST(RepublishCacheTest, CheckpointBytesMatchTheOldEncoding) {
  RepublishCache cache(/*max_idle_epochs=*/2);
  CacheOracle oracle(2);
  const std::vector<Itemset> keys = {
      Itemset{4}, Itemset{1, 2}, Itemset::FromSorted({1, 2, 3, 4, 5, 6, 7}),
      Itemset{9, 10}, Itemset{1}};
  Support next = 10;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (size_t k = static_cast<size_t>(epoch % 2); k < keys.size(); k += 2) {
      const RepublishCache::Entry entry{next, next + 1, 0.25 * epoch, 3.0};
      cache.Store(keys[k], entry);
      oracle.Store(keys[k], entry);
      ++next;
    }
    // Mid-epoch: new keys not yet merged into the run.
    ASSERT_EQ(Encode(cache), oracle.Encoding()) << "epoch " << epoch;
    cache.NextEpoch();
    oracle.NextEpoch();
    ASSERT_EQ(Encode(cache), oracle.Encoding()) << "epoch " << epoch;
  }
}

// An RPUB section holding these (itemset, sanitized support) pairs, in the
// given order.
std::string Section(const std::vector<std::pair<Itemset, Support>>& entries) {
  persist::CheckpointWriter writer;
  writer.Tag(persist::SectionTag('R', 'P', 'U', 'B'));
  writer.U64(3);
  writer.U64(entries.size());
  for (const auto& [itemset, sanitized] : entries) {
    writer.WriteItemset(itemset);
    writer.I64(5);
    writer.I64(sanitized);
    writer.F64(0.0);
    writer.F64(1.0);
    writer.U64(2);
  }
  return writer.data();
}

TEST(RepublishCacheTest, RestoreRejectsADuplicateEntry) {
  const std::string section =
      Section({{Itemset{1}, 7}, {Itemset{2, 3}, 8}, {Itemset{1}, 9}});
  RepublishCache cache;
  persist::CheckpointReader reader(section);
  const Status status = cache.Restore(&reader);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("duplicate"), std::string::npos)
      << status.message();
}

TEST(RepublishCacheTest, RestoreAcceptsAnUnsortedSection) {
  const std::string unsorted =
      Section({{Itemset{7}, 1}, {Itemset{1, 2}, 2}, {Itemset{1}, 3}});
  const std::string sorted =
      Section({{Itemset{1}, 3}, {Itemset{1, 2}, 2}, {Itemset{7}, 1}});
  RepublishCache cache;
  persist::CheckpointReader reader(unsorted);
  ASSERT_TRUE(cache.Restore(&reader).ok());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(Encode(cache), sorted);  // written back sorted by itemset
  EXPECT_EQ(cache.Lookup(Itemset{7}, 5)->sanitized_support, 1);
  EXPECT_EQ(cache.Lookup(Itemset{1}, 5)->sanitized_support, 3);
  EXPECT_EQ(cache.Lookup(Itemset{1, 2}, 5)->sanitized_support, 2);
}

}  // namespace
}  // namespace butterfly
