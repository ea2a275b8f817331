/// Adversarial stream structures for the incremental CET: shapes that stress
/// specific transition paths (nodes crossing C, unpromising
/// blocking/unblocking, cascaded prunes), each validated against the deep
/// self-check, the static miner, and the map-CET reference implementation
/// (bit-identical output on every slide). Items crossing C — the walks that
/// add or erase an item's counts — get their own scenarios under both row
/// stores. Also pins the arena's steady-state behavior: once a periodic
/// workload's node population stabilizes, churn is served from the free
/// list and the pool stops growing. The CET stores only frequent nodes: a
/// Zipf stream where infrequent gateways dominate pins it to the map CET,
/// and patched arenas pin the restore checks that keep a corrupt link or a
/// node the window disagrees with from reaching the output walk.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
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

// --- Restore rejects links the pruned walk cannot trust --------------------

// Where one live CET node's fields sit in a serialized miner.
struct NodeBytes {
  bool root = false;
  Itemset itemset;  // rebuilt from the root path
  Support support = 0;
  size_t support_at = 0;
  size_t flags_at = 0;
  uint8_t flags = 0;
  struct Ext {
    Item item;
    size_t item_at;
    Support count;
    size_t count_at;
  };
  std::vector<Ext> ext;
  std::vector<Item> children;
  std::vector<uint64_t> child_nodes;  // arena indices, as children

  bool unpromising() const { return (flags & 2) != 0; }

  const Ext& ExtOf(Item item) const {
    for (const Ext& e : ext) {
      if (e.item == item) return e;
    }
    ADD_FAILURE() << "no extension count for item " << item;
    return ext.front();
  }
};

// Walks the CET arena section of MomentMiner::Checkpoint's output, which
// follows the miner tag, min_support, the window and the index.
std::vector<NodeBytes> ParseArena(const MomentMiner& miner,
                                  const std::string& bytes) {
  persist::CheckpointWriter prefix;
  miner.window().Checkpoint(&prefix);
  miner.bitmap_index().Checkpoint(&prefix);
  const size_t arena_at = 4 + 8 + prefix.bytes();
  persist::CheckpointReader reader(std::string_view(bytes).substr(arena_at));
  auto at = [&] { return bytes.size() - reader.remaining(); };

  EXPECT_TRUE(
      reader.ExpectTag(persist::SectionTag('A', 'R', 'E', 'N'), "arena").ok());
  const uint64_t arena_size = reader.U64();
  const uint64_t free_count = reader.U64();
  std::vector<uint8_t> is_free(arena_size, 0);
  for (uint64_t i = 0; i < free_count; ++i) is_free[reader.U32()] = 1;
  std::vector<NodeBytes> nodes;
  std::vector<size_t> position(arena_size, 0);  // arena index -> nodes index
  for (uint64_t idx = 0; idx < arena_size; ++idx) {
    if (is_free[idx]) continue;
    position[idx] = nodes.size();
    NodeBytes node;
    node.root = idx == 0;
    reader.U32();  // branch item
    node.support_at = at();
    node.support = reader.I64();
    node.flags_at = at();
    node.flags = reader.U8();
    const uint64_t ext_count = reader.U64();
    for (uint64_t e = 0; e < ext_count; ++e) {
      NodeBytes::Ext ext;
      ext.item_at = at();
      ext.item = reader.U32();
      ext.count_at = at();
      ext.count = reader.I64();
      node.ext.push_back(ext);
    }
    const uint64_t child_count = reader.U64();
    for (uint64_t c = 0; c < child_count; ++c) {
      node.children.push_back(reader.U32());
      node.child_nodes.push_back(reader.U32());
    }
    nodes.push_back(std::move(node));
  }
  EXPECT_TRUE(reader.ok() && reader.AtEnd());
  // The arena order need not put a parent before its children, so the
  // itemsets are rebuilt from the root down.
  std::vector<size_t> stack = {0};
  while (!stack.empty()) {
    const NodeBytes& node = nodes[stack.back()];
    stack.pop_back();
    for (size_t c = 0; c < node.children.size(); ++c) {
      NodeBytes& child = nodes[position[node.child_nodes[c]]];
      child.itemset = node.itemset.With(node.children[c]);
      stack.push_back(position[node.child_nodes[c]]);
    }
  }
  return nodes;
}

// Items spaced by ten, so an item minus one is never in the window.
Itemset LinkRecord(int i) {
  switch (i % 6) {
    case 0: return Itemset{10, 20, 30};
    case 1: return Itemset{10, 20};
    case 2: return Itemset{20, 30, 40};
    case 3: return Itemset{10, 30, 50};
    case 4: return Itemset{10, 20, 30, 40};
    default: return Itemset{40, 60};
  }
}

class CorruptArenaTest : public ::testing::Test {
 protected:
  static constexpr size_t kWindow = 12;
  static constexpr Support kMinSupport = 3;

  void SetUp() override {
    for (int i = 0; i < 40; ++i) miner_.Append(Transaction(0, LinkRecord(i)));
    persist::CheckpointWriter writer;
    miner_.Checkpoint(&writer);
    saved_ = writer.data();
    nodes_ = ParseArena(miner_, saved_);
  }

  // The first non-root node that satisfies \p pred; the test fails if
  // none does.
  template <typename Pred>
  const NodeBytes& Find(const Pred& pred) {
    for (const NodeBytes& node : nodes_) {
      if (!node.root && pred(node)) return node;
    }
    ADD_FAILURE() << "no CET node of the wanted shape";
    return nodes_.front();
  }

  // A promising node with children.
  const NodeBytes& Parent() {
    return Find([](const NodeBytes& n) {
      return !n.unpromising() && !n.children.empty();
    });
  }

  // The node for \p itemset (the root for the empty one).
  const NodeBytes& At(const Itemset& itemset) {
    for (const NodeBytes& node : nodes_) {
      if (node.itemset == itemset) return node;
    }
    ADD_FAILURE() << "no CET node " << itemset.ToString();
    return nodes_.front();
  }

  // The saved bytes with the encoding of \p write put over those at \p at.
  template <typename Write>
  std::string Patched(size_t at, const Write& write) const {
    return Patched(saved_, at, write);
  }
  // \p bytes with the encoding of \p write put over those at \p at.
  template <typename Write>
  static std::string Patched(std::string bytes, size_t at,
                             const Write& write) {
    persist::CheckpointWriter field;
    write(&field);
    bytes.replace(at, field.bytes(), field.data());
    return bytes;
  }
  // The saved bytes with \p node's support and its parent's count for it
  // both set to \p support, so the link between them stays consistent.
  std::string WithSupport(const NodeBytes& node, Support support) {
    const Item branch = node.itemset.items().back();
    const NodeBytes::Ext& count =
        At(node.itemset.Without(branch)).ExtOf(branch);
    auto write = [&](persist::CheckpointWriter* w) { w->I64(support); };
    return Patched(Patched(node.support_at, write), count.count_at, write);
  }

  // Restore must fail with \p why, never read out of bounds.
  void ExpectRejected(const std::string& bytes, const std::string& why) {
    MomentMiner restored(kWindow, kMinSupport);
    persist::CheckpointReader reader(bytes);
    Status status = restored.Restore(&reader);
    ASSERT_FALSE(status.ok()) << why;
    EXPECT_NE(status.message().find("checkpoint corrupt: " + why),
              std::string::npos)
        << status.ToString();
  }

  MomentMiner miner_{kWindow, kMinSupport};
  std::string saved_;
  std::vector<NodeBytes> nodes_;
};

TEST_F(CorruptArenaTest, UnpatchedBytesRestoreTheSameOutput) {
  MomentMiner restored(kWindow, kMinSupport);
  persist::CheckpointReader reader(saved_);
  Status status = restored.Restore(&reader);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(restored.GetClosedFrequent().SameAs(miner_.GetClosedFrequent()));
  Status valid = restored.Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

// The fixture's window holds each LinkRecord twice. F is {10, 20, 30, 40}
// (supports 8, 8, 8, 6); 50 and 60 occur twice, below C = 3. The nodes the
// cases below patch:
//   {10}: support 8, counts 20:6 30:6 40:2, children {10,20} and {10,30};
//   {10,20}: support 6, child {10,20,30} at 4;
//   {10,30}: support 6, counts 20:4 40:2;
//   {40}: support 6, counts 10:2 20:4 30:4, no children.

TEST_F(CorruptArenaTest, RejectsASupportTheWindowDoesNotHave) {
  const std::string why = "CET node support disagrees with the window";
  // The root's support is the window size.
  const NodeBytes& root = At(Itemset{});
  ASSERT_EQ(root.support, static_cast<Support>(kWindow));
  ExpectRejected(Patched(root.support_at,
                         [&](persist::CheckpointWriter* w) {
                           w->I64(root.support + 1);
                         }),
                 why);
  // A leaf whose parent counts it with the same wrong support.
  const NodeBytes& leaf = At(Itemset{10, 20, 30});
  ASSERT_EQ(leaf.support, 4);
  ExpectRejected(WithSupport(leaf, leaf.support + 1), why);
}

TEST_F(CorruptArenaTest, RejectsANodeBelowMinSupport) {
  ExpectRejected(WithSupport(At(Itemset{10, 20, 30}), kMinSupport - 1),
                 "CET node below min_support");
}

TEST_F(CorruptArenaTest, RejectsACountForAnItemOutsideF) {
  const std::string why =
      "CET extension item is not a frequent item outside its node";
  // {10}'s count for 40 (not a child: 2 < C) moved to 50, below C.
  ExpectRejected(Patched(At(Itemset{10}).ExtOf(40).item_at,
                         [](persist::CheckpointWriter* w) { w->U32(50); }),
                 why);
  // {10,30}'s count for 20 moved to 10, an item of the node itself.
  ExpectRejected(Patched(At(Itemset{10, 30}).ExtOf(20).item_at,
                         [](persist::CheckpointWriter* w) { w->U32(10); }),
                 why);
}

TEST_F(CorruptArenaTest, RejectsACountOutOfRange) {
  const std::string why = "CET extension count out of range";
  // Above the node's support: {40} counts 10 (below its branch item, so no
  // child is implied) 7 times, but holds only 6 records.
  ExpectRejected(Patched(At(Itemset{40}).ExtOf(10).count_at,
                         [](persist::CheckpointWriter* w) { w->I64(7); }),
                 why);
  // Above the item's support: {10} (support 8) counts 40 (support 6) 7
  // times.
  ExpectRejected(Patched(At(Itemset{10}).ExtOf(40).count_at,
                         [](persist::CheckpointWriter* w) { w->I64(7); }),
                 why);
  // A count of zero is no co-occurrence and has no entry.
  ExpectRejected(Patched(At(Itemset{10}).ExtOf(40).count_at,
                         [](persist::CheckpointWriter* w) { w->I64(0); }),
                 why);
}

TEST_F(CorruptArenaTest, RejectsAPromisingNodeWithoutAFrequentChild) {
  // {10} counts 40 (above its branch item) C times but has no child for it.
  ExpectRejected(Patched(At(Itemset{10}).ExtOf(40).count_at,
                         [](persist::CheckpointWriter* w) {
                           w->I64(kMinSupport);
                         }),
                 "promising CET node lacks a frequent child");
}

TEST_F(CorruptArenaTest, RejectsAnUnpromisingNodeWithChildren) {
  const NodeBytes& node = Parent();
  ExpectRejected(Patched(node.flags_at,
                         [&](persist::CheckpointWriter* w) {
                           w->U8(node.flags | 2);
                         }),
                 "unpromising CET node with children");
}

TEST_F(CorruptArenaTest, RejectsAChildTheParentDoesNotCount) {
  const NodeBytes& node = Parent();
  const Item child = node.children.front();
  const NodeBytes::Ext* ext = nullptr;
  for (const NodeBytes::Ext& e : node.ext) {
    if (e.item == child) ext = &e;
  }
  ASSERT_NE(ext, nullptr);
  const std::string why =
      "CET child support disagrees with its parent's extension count";
  // The parent's count for the child's item differs from its support.
  ExpectRejected(Patched(ext->count_at,
                         [&](persist::CheckpointWriter* w) {
                           w->I64(ext->count + 1);
                         }),
                 why);
  // The child's item is missing from the parent's counts (the item below it
  // keeps the counts ascending).
  ExpectRejected(Patched(ext->item_at,
                         [&](persist::CheckpointWriter* w) {
                           w->U32(ext->item - 1);
                         }),
                 why);
}

}  // namespace
}  // namespace butterfly
