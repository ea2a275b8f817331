/// Adversarial stream structures for the incremental CET: shapes that stress
/// specific transition paths (nodes crossing C, unpromising
/// blocking/unblocking, cascaded prunes), each validated against the deep
/// self-check, the static miner, and the map-CET reference implementation
/// (bit-identical output on every slide). Items crossing C — the walks that
/// add or erase an item's counts — get their own scenarios under both row
/// stores. Also pins the arena's steady-state behavior: once a periodic
/// workload's node population stabilizes, churn is served from the free
/// list and the pool stops growing. The CET stores only frequent nodes: a
/// Zipf stream where infrequent gateways dominate pins it to the map CET.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/zipf.h"
#include "mining/closed.h"
#include "moment/map_cet_miner.h"
#include "moment/moment.h"
#include "persist/serializer.h"

namespace butterfly {
namespace {

void DriveAndCheck(MomentMiner* miner, const std::vector<Itemset>& records) {
  ClosedMiner reference;
  MapCetMiner map_cet(miner->window().capacity(), miner->min_support());
  for (const Itemset& items : records) {
    miner->Append(Transaction(0, items));
    map_cet.Append(Transaction(0, items));
    Status status = miner->Validate();
    ASSERT_TRUE(status.ok()) << status.ToString();
    MiningOutput got = miner->GetClosedFrequent();
    MiningOutput expected =
        reference.Mine(miner->window().Snapshot(), miner->min_support());
    ASSERT_TRUE(got.SameAs(expected)) << miner->window().Label();
    ASSERT_TRUE(got.SameAs(map_cet.GetClosedFrequent()))
        << "diverged from the map CET at " << miner->window().Label();
  }
}

TEST(MomentStressTest, AscendingChains) {
  // Each record extends the previous: r_i = {0..i mod 6}. Deep subset
  // structure with constant churn at the chain tip.
  std::vector<Itemset> records;
  for (int i = 0; i < 30; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a <= static_cast<Item>(i % 6); ++a) items.push_back(a);
    records.emplace_back(items);
  }
  MomentMiner miner(7, 3);
  DriveAndCheck(&miner, records);
}

TEST(MomentStressTest, DescendingChains) {
  std::vector<Itemset> records;
  for (int i = 0; i < 30; ++i) {
    std::vector<Item> items;
    for (Item a = static_cast<Item>(i % 6); a < 6; ++a) items.push_back(a);
    records.emplace_back(items);
  }
  MomentMiner miner(7, 3);
  DriveAndCheck(&miner, records);
}

TEST(MomentStressTest, ThresholdOscillation) {
  // Two alternating record types around the exact threshold of a window of
  // six: supports bounce across C on almost every slide, exercising gateway
  // promotion and demotion repeatedly.
  std::vector<Itemset> records;
  for (int i = 0; i < 36; ++i) {
    records.push_back(i % 2 == 0 ? Itemset{1, 2} : Itemset{2, 3});
  }
  MomentMiner miner(6, 3);
  DriveAndCheck(&miner, records);
}

TEST(MomentStressTest, BlockerFlipFlop) {
  // Records engineered so that item 0 alternately covers and uncovers the
  // records containing item 3, toggling the unpromising blocker on the {3}
  // branch.
  std::vector<Itemset> records;
  for (int i = 0; i < 40; ++i) {
    switch (i % 4) {
      case 0: records.push_back(Itemset{0, 3}); break;
      case 1: records.push_back(Itemset{0, 1, 3}); break;
      case 2: records.push_back(Itemset{3, 4}); break;  // breaks 0-coverage
      default: records.push_back(Itemset{0, 4}); break;
    }
  }
  MomentMiner miner(8, 2);
  DriveAndCheck(&miner, records);
}

TEST(MomentStressTest, WideSingleItemRecords) {
  // Window full of singletons: the CET is a flat forest of leaves; no
  // multi-item itemset must ever appear.
  std::vector<Itemset> records;
  for (int i = 0; i < 24; ++i) {
    records.push_back(Itemset{static_cast<Item>(i % 4)});
  }
  MomentMiner miner(8, 2);
  DriveAndCheck(&miner, records);
  MiningOutput closed = miner.GetClosedFrequent();
  for (const FrequentItemset& f : closed.itemsets()) {
    EXPECT_EQ(f.itemset.size(), 1u);
  }
}

TEST(MomentStressTest, FullUniverseRecords) {
  // Every record is the whole alphabet: exactly one closed itemset exists.
  std::vector<Itemset> records(20, Itemset{0, 1, 2, 3, 4, 5, 6, 7});
  MomentMiner miner(5, 2);
  DriveAndCheck(&miner, records);
  MiningOutput closed = miner.GetClosedFrequent();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed.itemsets()[0].itemset.size(), 8u);
}

TEST(MomentStressTest, WindowOfOne) {
  MomentMiner miner(1, 1);
  std::vector<Itemset> records = {Itemset{1, 2}, Itemset{3}, Itemset{1, 3},
                                  Itemset{2}};
  DriveAndCheck(&miner, records);
  EXPECT_EQ(miner.GetClosedFrequent().size(), 1u);
}

TEST(MomentStressTest, ShiftingAlphabet) {
  // The item universe slides: items enter, dominate, and vanish entirely —
  // node removal down to zero-support must keep the tree consistent.
  std::vector<Itemset> records;
  for (int i = 0; i < 50; ++i) {
    Item base = static_cast<Item>(i / 5);
    records.push_back(Itemset{base, static_cast<Item>(base + 1)});
  }
  MomentMiner miner(6, 2);
  DriveAndCheck(&miner, records);
}

// A periodic record generator: after one full period the window contents
// repeat exactly, so the CET node population is eventually periodic too.
Itemset PeriodicRecord(int i) {
  switch (i % 5) {
    case 0: return Itemset{0, 1, 2};
    case 1: return Itemset{1, 2, 3};
    case 2: return Itemset{0, 3};
    case 3: return Itemset{2, 4};
    default: return Itemset{0, 1, 4};
  }
}

TEST(MomentStressTest, ArenaServesSteadyStateFromFreeList) {
  // Drive a periodic stream long enough for the node population to cycle,
  // snapshot the pool size, then keep going: every node the churn needs must
  // come from the free list — the arena must not grow again. This is the
  // allocation-free steady state the arena exists for (no per-node heap
  // allocation once capacity is reached; the ASAN variant of this suite
  // additionally rules out stale-reference reuse bugs).
  MomentMiner miner(10, 3);
  int i = 0;
  for (; i < 60; ++i) miner.Append(Transaction(0, PeriodicRecord(i)));
  const MomentArenaStats warm = miner.arena_stats();
  EXPECT_GT(warm.capacity, 1u);  // more than the root materialized
  for (; i < 300; ++i) {
    miner.Append(Transaction(0, PeriodicRecord(i)));
    const MomentArenaStats now = miner.arena_stats();
    EXPECT_EQ(now.capacity, warm.capacity)
        << "arena grew in steady state at record " << i;
    EXPECT_EQ(now.live + now.free_list, now.capacity);
  }
}

TEST(MomentStressTest, ArenaRecyclesAfterAlphabetTurnover) {
  // Two disjoint alphabets alternate in long phases. Returning to phase A
  // must reuse the nodes freed when phase A's itemsets died — the pool may
  // grow while *both* alphabets' nodes are transiently live, but a later
  // full cycle must not allocate beyond the high-water mark.
  MomentMiner miner(8, 2);
  auto phase_record = [](int i) {
    const bool phase_b = (i / 20) % 2 == 1;
    const Item base = phase_b ? 10 : 0;
    return Itemset{static_cast<Item>(base + i % 3),
                   static_cast<Item>(base + i % 3 + 1)};
  };
  int i = 0;
  for (; i < 80; ++i) miner.Append(Transaction(0, phase_record(i)));
  const size_t high_water = miner.arena_stats().capacity;
  for (; i < 400; ++i) {
    miner.Append(Transaction(0, phase_record(i)));
    EXPECT_EQ(miner.arena_stats().capacity, high_water)
        << "arena grew after both phases were already seen, at record " << i;
  }
  Status status = miner.Validate();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

// --- The pruned output walk where infrequent gateways dominate ------------

// Zipf-distributed records over a 4001-item alphabet. Ranks are scattered
// over the item ids (7919 is coprime to 4001), so popular items do not all
// sit at the small ids.
std::vector<Itemset> ZipfRecords(size_t count, uint64_t seed) {
  constexpr size_t kAlphabet = 4001;
  Rng rng(seed);
  ZipfSampler zipf(kAlphabet, 1.1);
  std::vector<Itemset> records;
  for (size_t i = 0; i < count; ++i) {
    std::vector<Item> items;
    const int64_t length = rng.UniformInt(2, 8);
    for (int64_t k = 0; k < length; ++k) {
      items.push_back(
          static_cast<Item>(zipf.Sample(&rng) * 7919 % kAlphabet));
    }
    records.emplace_back(std::move(items));
  }
  return records;
}

// The closed itemsets match the map CET's, and SupportOf answers every
// frequent itemset with its support.
void ExpectSameAsMapCet(const MomentMiner& miner, const MapCetMiner& map_cet,
                        const std::string& where) {
  ASSERT_TRUE(miner.GetClosedFrequent().SameAs(map_cet.GetClosedFrequent()))
      << where;
  const MiningOutput all = miner.GetAllFrequent();
  for (const FrequentItemset& f : all.itemsets()) {
    ASSERT_EQ(miner.SupportOf(f.itemset), f.support)
        << where << ": " << f.itemset.ToString();
  }
}

class GatewayDominatedTest : public ::testing::TestWithParam<IndexRowStore> {};

TEST_P(GatewayDominatedTest, PrunedWalkMatchesMapCet) {
  constexpr size_t kWindow = 300;
  constexpr Support kMinSupport = 6;
  const std::vector<Itemset> records = ZipfRecords(3 * kWindow, 17);
  MomentMiner miner(kWindow, kMinSupport, GetParam());
  MapCetMiner map_cet(kWindow, kMinSupport);
  for (size_t i = 0; i < records.size(); ++i) {
    miner.Append(Transaction(0, records[i]));
    map_cet.Append(Transaction(0, records[i]));
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameAsMapCet(miner, map_cet, "record " + std::to_string(i)));
    if (i + 1 != 2 * kWindow && i + 1 != records.size()) continue;

    // The pruning has something to skip: almost every node is a leaf.
    const MomentStats stats = miner.Stats();
    EXPECT_GE(stats.infrequent_gateway * 10, stats.total() * 9)
        << stats.infrequent_gateway << " of " << stats.total();
    Status valid = miner.Validate();
    ASSERT_TRUE(valid.ok()) << valid.ToString();

    // A restored miner answers the same, and keeps maintaining from there.
    persist::CheckpointWriter writer;
    miner.Checkpoint(&writer);
    MomentMiner restored(kWindow, kMinSupport, GetParam());
    persist::CheckpointReader reader(writer.data());
    Status status = restored.Restore(&reader);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectSameAsMapCet(
        restored, map_cet, "restored at " + std::to_string(i)));
    miner = std::move(restored);
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, GatewayDominatedTest,
                         ::testing::Values(IndexRowStore::kDense,
                                           IndexRowStore::kHybrid));

// --- Items crossing C --------------------------------------------------------
//
// An item that enters F has its counts added at the stored nodes its other
// records contain; one that leaves F has them erased. Each scenario drives
// one miner per row store and checks it after every Append against the map
// CET; halfway through, the miner continues from its own checkpoint.

class CrossingTest : public ::testing::TestWithParam<IndexRowStore> {
 protected:
  // \p probe(i, miner) runs after record i's checks, for the scenario's own
  // assertions.
  template <typename Probe>
  void Drive(size_t window, Support min_support,
             const std::vector<Itemset>& records, const Probe& probe) {
    MomentMiner miner(window, min_support, GetParam());
    MapCetMiner map_cet(window, min_support);
    for (size_t i = 0; i < records.size(); ++i) {
      miner.Append(Transaction(0, records[i]));
      map_cet.Append(Transaction(0, records[i]));
      const std::string where = "record " + std::to_string(i);
      Status valid = miner.Validate();
      ASSERT_TRUE(valid.ok()) << where << ": " << valid.ToString();
      ASSERT_NO_FATAL_FAILURE(ExpectSameAsMapCet(miner, map_cet, where));
      ASSERT_NO_FATAL_FAILURE(probe(i, miner));
      if (i + 1 != records.size() / 2) continue;
      persist::CheckpointWriter writer;
      miner.Checkpoint(&writer);
      MomentMiner restored(window, min_support, GetParam());
      persist::CheckpointReader reader(writer.data());
      Status status = restored.Restore(&reader);
      ASSERT_TRUE(status.ok()) << where << ": " << status.ToString();
      miner = std::move(restored);
    }
  }
};

Support ItemSupport(const MomentMiner& miner, Item item) {
  return miner.bitmap_index().ItemSupport(item);
}

TEST_P(CrossingTest, EntersOnArrivalAndLeavesOnTheNextExpiry) {
  // Item 0 is in every even record. With an odd window H = 7, each even
  // arrival evicts an odd record and each odd arrival an even one, so once
  // the window is full T({0}) alternates 4, 3, 4, ... around C = 4: 0 enters
  // F on every even arrival and leaves it on the next expiry. Item 0 sits
  // below the others, so while it is in F it blocks every node whose
  // records all hold it.
  constexpr size_t kWindow = 7;
  constexpr Support kMinSupport = 4;
  std::vector<Itemset> records;
  for (int i = 0; i < 60; ++i) {
    records.push_back(i % 2 == 0
                          ? Itemset{0, 2, static_cast<Item>(3 + i % 3)}
                          : Itemset{1, 2, static_cast<Item>(4 + i % 4 / 2)});
  }
  int enters = 0;
  int leaves = 0;
  Support before = 0;
  Drive(kWindow, kMinSupport, records, [&](size_t i, const MomentMiner& m) {
    const Support now = ItemSupport(m, 0);
    if (i >= kWindow) {
      ASSERT_EQ(now, i % 2 == 0 ? kMinSupport : kMinSupport - 1) << i;
      if (before < kMinSupport && now >= kMinSupport) ++enters;
      if (before >= kMinSupport && now < kMinSupport) ++leaves;
    }
    before = now;
  });
  EXPECT_GE(enters, 20);
  EXPECT_GE(leaves, 20);
}

TEST_P(CrossingTest, ItemAtCInBothTheEvictedAndTheArrivingRecord) {
  // A period of H records: every Append evicts the record it repeats, so
  // each item is in both records or in neither and F never changes. Items
  // 1 and 2 sit exactly at C; {1} and {2} fall below C on the expiry and
  // come back on the arrival.
  constexpr size_t kWindow = 4;
  constexpr Support kMinSupport = 2;
  const std::vector<Itemset> period = {Itemset{1, 2}, Itemset{2, 3},
                                       Itemset{1, 3}, Itemset{3, 4}};
  std::vector<Itemset> records;
  for (int i = 0; i < 24; ++i) records.push_back(period[i % period.size()]);
  Drive(kWindow, kMinSupport, records, [&](size_t i, const MomentMiner& m) {
    if (i + 1 < kWindow) return;
    EXPECT_EQ(ItemSupport(m, 1), kMinSupport);
    EXPECT_EQ(ItemSupport(m, 2), kMinSupport);
    EXPECT_EQ(ItemSupport(m, 4), 1);
    EXPECT_FALSE(m.SupportOf(Itemset{1, 2}).has_value());
  });
}

TEST_P(CrossingTest, EntersWhileItsRecordsHoldAnUnpromisingNode) {
  // {3} is unpromising while every record holding it also holds 1. Item 5
  // enters F (C = 2) on an arrival of {3, 5}; its earlier record {1, 3, 5}
  // holds the unpromising {3}, which counts 5 from then on. The same
  // arrival breaks the blocker, and {3} expands into {3, 5} from counts
  // that include the walk's.
  constexpr size_t kWindow = 6;
  constexpr Support kMinSupport = 2;
  const std::vector<Itemset> period = {Itemset{1, 3, 5}, Itemset{1, 3},
                                       Itemset{2},       Itemset{2},
                                       Itemset{2},       Itemset{3, 5},
                                       Itemset{1, 3},    Itemset{1, 3}};
  std::vector<Itemset> records;
  for (int i = 0; i < 48; ++i) records.push_back(period[i % period.size()]);
  int crossings = 0;
  Drive(kWindow, kMinSupport, records, [&](size_t i, const MomentMiner& m) {
    if (i % period.size() == 4) {
      // The moment before the arrival of {3, 5}.
      EXPECT_EQ(ItemSupport(m, 5), kMinSupport - 1) << i;
      EXPECT_GE(m.Stats().unpromising_gateway, 1u) << i;
    }
    if (i % period.size() == 5) {
      EXPECT_EQ(ItemSupport(m, 5), kMinSupport) << i;
      EXPECT_EQ(m.SupportOf(Itemset{3, 5}), kMinSupport) << i;
      ++crossings;
    }
  });
  EXPECT_EQ(crossings, 6);
}

TEST_P(CrossingTest, EntryMakesAChildAndEndsTheParentsClosure) {
  // {1} is closed at support C = 3 until an Append evicts {1} and brings
  // {1, 2}: item 2 reaches C in records that all hold 1, so {1, 2} becomes
  // a child at C and {1}, with the same support, is no longer closed.
  constexpr size_t kWindow = 5;
  constexpr Support kMinSupport = 3;
  const std::vector<Itemset> period = {Itemset{1},    Itemset{1, 2},
                                       Itemset{1, 2}, Itemset{3},
                                       Itemset{3},    Itemset{1, 2},
                                       Itemset{4},    Itemset{4},
                                       Itemset{4},    Itemset{4}};
  std::vector<Itemset> records;
  for (int i = 0; i < 50; ++i) records.push_back(period[i % period.size()]);
  int transitions = 0;
  bool was_closed = false;
  Drive(kWindow, kMinSupport, records, [&](size_t, const MomentMiner& m) {
    const MiningOutput closed = m.GetClosedFrequent();
    const bool is_closed = closed.SupportOf(Itemset{1}) == kMinSupport;
    if (was_closed && !is_closed &&
        closed.SupportOf(Itemset{1, 2}) == kMinSupport &&
        ItemSupport(m, 2) == kMinSupport) {
      ++transitions;
    }
    was_closed = is_closed;
  });
  EXPECT_EQ(transitions, 5);
}

TEST_P(CrossingTest, MinSupportOneAndMinSupportH) {
  // C = 1: every item in the window is in F, and an item enters with no
  // other record and leaves with none left. C = H: only items in every
  // record are in F.
  constexpr size_t kWindow = 5;
  Rng rng(11);
  std::vector<Itemset> records;
  for (int i = 0; i < 60; ++i) {
    std::vector<Item> items;
    if (i % 9 != 8) items.push_back(0);  // in F at C = H, now and then
    for (Item a = 1; a < 7; ++a) {
      if (rng.Bernoulli(0.4)) items.push_back(a);
    }
    records.emplace_back(std::move(items));
  }
  for (Support min_support : {Support{1}, static_cast<Support>(kWindow)}) {
    SCOPED_TRACE("C = " + std::to_string(min_support));
    Drive(kWindow, min_support, records, [](size_t, const MomentMiner&) {});
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, CrossingTest,
                         ::testing::Values(IndexRowStore::kDense,
                                           IndexRowStore::kHybrid));

}  // namespace
}  // namespace butterfly
