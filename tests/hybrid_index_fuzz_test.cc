/// Randomized equivalence grid for the hybrid window-index row store: the
/// TidContainer representations (array / bitmap) against a dense ground
/// truth through every promotion/demotion edge, the word kernels against a
/// per-word std::popcount reference, hybrid vs dense WindowBitmapIndex
/// supports/tidsets under drift + partial fill + eviction churn, engine
/// release logs byte-compared across stores at threads {1, 8}, and
/// checkpoint kill-and-restore over container promotion boundaries. An
/// ASAN/UBSAN-instrumented variant of this binary runs in CI (see
/// tests/CMakeLists.txt) because container conversions recycle vector
/// storage and the kernels index raw word arrays — exactly the bug classes
/// the sanitizers catch.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/bitmap_kernels.h"
#include "common/rng.h"
#include "common/tid_container.h"
#include "core/stream_engine.h"
#include "datagen/profiles.h"
#include "moment/moment.h"
#include "persist/serializer.h"
#include "stream/sliding_window.h"
#include "stream/window_bitmap_index.h"

namespace butterfly {
namespace {

// --- TidContainer vs a reference std::set -----------------------------------

TEST(TidContainerTest, RepresentationChoiceIsPureByteCost) {
  // Small slot space: bitmap costs 8 bytes (1 word), so it wins early.
  EXPECT_EQ(TidContainer::ChooseKind(0, 64), TidContainer::Kind::kArray);
  EXPECT_EQ(TidContainer::ChooseKind(5, 64), TidContainer::Kind::kBitmap);
  // Large slot space: array wins while sparse, the bitmap once populous.
  EXPECT_EQ(TidContainer::ChooseKind(100, 65536), TidContainer::Kind::kArray);
  EXPECT_EQ(TidContainer::ChooseKind(60000, 65536),
            TidContainer::Kind::kBitmap);
  // Tie-break: array at equal byte cost (4 members = 8 bytes = 1 word), and
  // the edge is ArrayLimit(H).
  EXPECT_EQ(TidContainer::ChooseKind(4, 64), TidContainer::Kind::kArray);
  EXPECT_EQ(TidContainer::ArrayLimit(65536), 4096u);
  EXPECT_EQ(TidContainer::ChooseKind(4096, 65536), TidContainer::Kind::kArray);
  EXPECT_EQ(TidContainer::ChooseKind(4097, 65536),
            TidContainer::Kind::kBitmap);
}

struct ContainerFuzzCase {
  uint64_t seed;
  size_t h;
  double set_bias;  ///< probability a mutation is a Set (vs Clear)
  double run_bias;  ///< probability a Set extends the previous slot
  size_t mutations;
};

class ContainerFuzzTest : public ::testing::TestWithParam<ContainerFuzzCase> {};

TEST_P(ContainerFuzzTest, MatchesReferenceSetThroughConversions) {
  const ContainerFuzzCase& param = GetParam();
  Rng rng(param.seed);
  TidContainer container;
  container.Init(param.h);
  std::set<size_t> reference;
  std::set<TidContainer::Kind> kinds_seen;
  size_t last_burst = 0;

  for (size_t m = 0; m < param.mutations; ++m) {
    // A full container would make the rejection-sampling loop below spin
    // forever, so force a clear once every slot is occupied.
    const bool full = reference.size() == param.h;
    const bool do_set =
        !full && (rng.Bernoulli(param.set_bias) || reference.empty());
    if (do_set) {
      size_t slot;
      if (rng.Bernoulli(param.run_bias) && last_burst + 1 < param.h &&
          reference.count(last_burst + 1) == 0) {
        slot = last_burst + 1;  // extend a burst of consecutive slots
      } else {
        do {
          slot = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(param.h) - 1));
        } while (reference.count(slot) != 0);
      }
      container.Set(slot);
      reference.insert(slot);
      last_burst = slot;
    } else {
      // Clear a pseudo-random existing member.
      size_t skip = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(reference.size()) - 1));
      auto it = reference.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(skip));
      container.Clear(*it);
      reference.erase(it);
    }
    kinds_seen.insert(container.kind());
    // The form is a function of the cardinality alone, at every step.
    ASSERT_EQ(container.kind(),
              TidContainer::ChooseKind(container.cardinality(), param.h));

    // Cheap invariants every step; full equality periodically (O(H) each).
    ASSERT_EQ(container.cardinality(), reference.size());
    if (m % 64 == 0 || m + 1 == param.mutations) {
      Bitmap dense;
      dense.Resize(param.h);
      for (size_t s : reference) dense.Set(s);
      ASSERT_TRUE(container.SameSetAs(dense)) << "mutation " << m;
      for (size_t probe = 0; probe < 16; ++probe) {
        size_t slot = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(param.h) - 1));
        ASSERT_EQ(container.Test(slot), reference.count(slot) != 0);
      }
    }
  }
  // The grid parameters are chosen so every case visits >= 2 representations
  // (otherwise the conversion paths go untested silently).
  EXPECT_GE(kinds_seen.size(), 2u) << "grid case never converted";
}

TEST_P(ContainerFuzzTest, AndKernelsAgreeWithDense) {
  const ContainerFuzzCase& param = GetParam();
  Rng rng(param.seed ^ 0x5eedu);
  TidContainer container;
  container.Init(param.h);
  std::set<size_t> reference;
  size_t cursor = 0;
  for (size_t m = 0; m < param.mutations; ++m) {
    size_t slot;
    if (rng.Bernoulli(param.run_bias)) {
      slot = cursor = (cursor + 1) % param.h;
    } else {
      slot = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(param.h) - 1));
    }
    if (reference.insert(slot).second) container.Set(slot);
  }

  Bitmap dense;
  dense.Resize(param.h);
  for (size_t s : reference) dense.Set(s);

  Bitmap base;
  base.Resize(param.h);
  for (size_t s = 0; s < param.h; ++s) {
    if (rng.Bernoulli(0.5)) base.Set(s);
  }
  Bitmap expected;
  size_t expected_count = expected.AssignAnd(base, dense);

  Bitmap out;
  ASSERT_EQ(container.AndInto(base, &out), expected_count);
  ASSERT_TRUE(out == expected);

  Bitmap inplace = base;
  ASSERT_EQ(container.AndWith(&inplace), expected_count);
  ASSERT_TRUE(inplace == expected);

  Bitmap materialized;
  container.ToBitmap(&materialized);
  ASSERT_TRUE(materialized == dense);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ContainerFuzzTest,
    ::testing::Values(
        ContainerFuzzCase{201, 128, 0.7, 0.0, 600},    // scatter, small space
        ContainerFuzzCase{202, 128, 0.7, 0.9, 600},    // bursty, small space
        ContainerFuzzCase{203, 2000, 0.6, 0.0, 3000},  // scatter, window-sized
        ContainerFuzzCase{204, 2000, 0.6, 0.95, 3000},  // bursty runs
        ContainerFuzzCase{205, 2000, 0.55, 0.5, 4000},  // churny mix
        // Full uint16 space: enough net growth to cross ArrayLimit (4096)
        // and promote array → bitmap.
        ContainerFuzzCase{206, 65536, 0.85, 0.5, 12000},
        ContainerFuzzCase{207, 100, 0.5, 0.3, 2000}));  // heavy delete churn

TEST(TidContainerTest, RunEdgeCases) {
  TidContainer container;
  container.Init(65536);
  // Every slot of the whole uint16 space set in order: the row passes the
  // array edge and ends as a full bitmap.
  for (size_t s = 0; s < 65536; ++s) container.Set(s);
  EXPECT_EQ(container.cardinality(), 65536u);
  EXPECT_EQ(container.kind(), TidContainer::Kind::kBitmap);
  Bitmap full;
  full.Resize(65536);
  for (size_t s = 0; s < 65536; ++s) full.Set(s);
  EXPECT_TRUE(container.SameSetAs(full));

  // Clearing an interior slot and re-filling it round-trips.
  container.Clear(30000);
  EXPECT_FALSE(container.Test(30000));
  EXPECT_TRUE(container.Test(29999));
  EXPECT_TRUE(container.Test(30001));
  container.Set(30000);
  EXPECT_TRUE(container.SameSetAs(full));

  // Clearing back down to the edge demotes the row to an array, with no
  // memory of having been a bitmap.
  for (size_t s = TidContainer::ArrayLimit(65536); s < 65536; ++s) {
    container.Clear(s);
  }
  EXPECT_EQ(container.kind(), TidContainer::Kind::kArray);
  EXPECT_EQ(container.cardinality(), TidContainer::ArrayLimit(65536));
  EXPECT_TRUE(container.Test(0));
  EXPECT_FALSE(container.Test(TidContainer::ArrayLimit(65536)));
}

// --- Raw word kernels against a per-word std::popcount reference ------------

uint64_t RandomWord(Rng* rng) {
  const uint64_t hi = static_cast<uint64_t>(rng->UniformInt(0, 0xFFFFFFFF));
  const uint64_t lo = static_cast<uint64_t>(rng->UniformInt(0, 0xFFFFFFFF));
  return (hi << 32) | lo;
}

TEST(BitmapKernelTest, MatchesPerWordPopcountReference) {
  Rng rng(77);
  for (size_t words : {1u, 2u, 3u, 4u, 7u, 8u, 31u, 32u, 33u, 129u}) {
    std::vector<uint64_t> a(words), b(words);
    for (size_t w = 0; w < words; ++w) {
      a[w] = RandomWord(&rng);
      b[w] = RandomWord(&rng);
    }
    std::vector<uint64_t> want_and(words);
    size_t want_and_count = 0;
    size_t want_pop = 0;
    for (size_t w = 0; w < words; ++w) {
      want_and[w] = a[w] & b[w];
      want_and_count += static_cast<size_t>(std::popcount(want_and[w]));
      want_pop += static_cast<size_t>(std::popcount(a[w]));
    }

    std::vector<uint64_t> dst(words);
    EXPECT_EQ(AndWordsPopcount(dst.data(), a.data(), b.data(), words),
              want_and_count)
        << words << " words";
    EXPECT_EQ(dst, want_and) << words << " words";
    EXPECT_EQ(PopcountWords(a.data(), words), want_pop) << words << " words";

    // Aliased dst (the Bitmap::AndWith shape) must behave identically.
    std::vector<uint64_t> aliased = a;
    EXPECT_EQ(AndWordsPopcount(aliased.data(), aliased.data(), b.data(), words),
              want_and_count)
        << words << " words";
    EXPECT_EQ(aliased, want_and) << words << " words";
  }
}

// --- Dense vs hybrid WindowBitmapIndex equivalence --------------------------

struct IndexFuzzCase {
  uint64_t seed;
  size_t capacity;       ///< window size H
  size_t records;        ///< stream length (eviction churn when > capacity)
  Item alphabet;         ///< item universe
  double density;        ///< per-item membership probability
  Item drift_per_slide;  ///< universe shift per record (concept drift)
};

std::vector<Transaction> RandomStream(const IndexFuzzCase& param) {
  Rng rng(param.seed);
  std::vector<Transaction> stream;
  Item base = 0;
  for (size_t i = 0; i < param.records; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < param.alphabet; ++a) {
      if (rng.Bernoulli(param.density)) items.push_back(base + a);
    }
    if (items.empty()) {
      items.push_back(base +
                      static_cast<Item>(rng.UniformInt(0, param.alphabet - 1)));
    }
    stream.emplace_back(i + 1, Itemset(std::move(items)));
    base += param.drift_per_slide;  // the universe slides: rows die and recycle
  }
  return stream;
}

// The gauge's invariants: the histogram covers every live row, and the
// dense equivalent prices each at one H-bit bitmap (which is exactly what a
// dense-store row costs).
void ExpectMemoryAccounting(const WindowBitmapIndex& index) {
  const IndexMemoryStats stats = index.MemoryStats();
  EXPECT_EQ(stats.array_rows + stats.bitmap_rows, index.live_items());
  EXPECT_EQ(stats.dense_equivalent_bytes,
            index.live_items() * Bitmap::WordsFor(index.capacity()) * 8);
  if (index.row_store() == IndexRowStore::kDense) {
    EXPECT_EQ(stats.index_bytes, stats.dense_equivalent_bytes);
  }
}

// Checkpoints a window, restores it, and rebuilds the index from it, as a
// restore does. The rebuilt index matches its window, keeps the gauge's
// invariants and reads the live index's gauge: a row's form is a function
// of its cardinality and H, so replaying the window's arrivals reproduces
// every row's form under either store.
void ExpectAccountingSurvivesRestore(const SlidingWindow& window,
                                     const WindowBitmapIndex& index) {
  persist::CheckpointWriter writer;
  window.Checkpoint(&writer);
  SlidingWindow restored_window(window.capacity());
  persist::CheckpointReader reader(writer.data());
  ASSERT_TRUE(restored_window.Restore(&reader).ok());
  WindowBitmapIndex restored(index.capacity(), index.row_store());
  restored.Rebuild(restored_window);
  Status valid = restored.Validate(restored_window);
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ExpectMemoryAccounting(restored);
  EXPECT_TRUE(restored.MemoryStats() == index.MemoryStats());
}

class HybridIndexFuzzTest : public ::testing::TestWithParam<IndexFuzzCase> {};

TEST_P(HybridIndexFuzzTest, HybridIndexMatchesDenseEverywhere) {
  const IndexFuzzCase& param = GetParam();
  std::vector<Transaction> stream = RandomStream(param);

  SlidingWindow dense_window(param.capacity), hybrid_window(param.capacity);
  WindowBitmapIndex dense(param.capacity, IndexRowStore::kDense);
  WindowBitmapIndex hybrid(param.capacity, IndexRowStore::kHybrid);
  Rng probe_rng(param.seed ^ 0xabcdu);

  for (size_t i = 0; i < stream.size(); ++i) {
    {
      std::optional<Transaction> evicted = dense_window.Append(stream[i]);
      const Transaction& added = dense_window.transactions().back();
      dense.Apply(&added, evicted ? &*evicted : nullptr);
    }
    {
      std::optional<Transaction> evicted = hybrid_window.Append(stream[i]);
      const Transaction& added = hybrid_window.transactions().back();
      hybrid.Apply(&added, evicted ? &*evicted : nullptr);
    }

    ASSERT_EQ(dense.live_items(), hybrid.live_items());
    // Probe random itemsets at every step; deep-validate periodically.
    const Item lo = stream[i].items.empty() ? 0 : stream[i].items[0];
    for (size_t probe = 0; probe < 8; ++probe) {
      std::vector<Item> members;
      const size_t len =
          static_cast<size_t>(probe_rng.UniformInt(1, 3));
      for (size_t k = 0; k < len; ++k) {
        members.push_back(static_cast<Item>(
            lo + probe_rng.UniformInt(0, param.alphabet - 1)));
      }
      Itemset probe_set(std::move(members));
      Bitmap dense_tidset, hybrid_tidset;
      ASSERT_EQ(dense.Tidset(probe_set, &dense_tidset),
                hybrid.Tidset(probe_set, &hybrid_tidset))
          << "record " << i << " itemset " << probe_set.ToString();
      ASSERT_TRUE(dense_tidset == hybrid_tidset);
      ASSERT_EQ(dense.SupportOf(probe_set), hybrid.SupportOf(probe_set));

      // Refine from the probed tidset by one more item.
      Item extra = static_cast<Item>(
          lo + probe_rng.UniformInt(0, param.alphabet - 1));
      Bitmap dense_refined, hybrid_refined;
      ASSERT_EQ(dense.Refine(dense_tidset, extra, &dense_refined),
                hybrid.Refine(hybrid_tidset, extra, &hybrid_refined));
      ASSERT_TRUE(dense_refined == hybrid_refined);
    }
    if (i % 97 == 0 || i + 1 == stream.size()) {
      ASSERT_TRUE(dense.Validate(dense_window).ok());
      Status hybrid_valid = hybrid.Validate(hybrid_window);
      ASSERT_TRUE(hybrid_valid.ok()) << hybrid_valid.ToString();
      SCOPED_TRACE("record " + std::to_string(i));
      ExpectMemoryAccounting(dense);
      ExpectMemoryAccounting(hybrid);
      ExpectAccountingSurvivesRestore(dense_window, dense);
      ExpectAccountingSurvivesRestore(hybrid_window, hybrid);
    }
  }
}

TEST_P(HybridIndexFuzzTest, MomentMinerOutputIsIdenticalAcrossStores) {
  const IndexFuzzCase& param = GetParam();
  std::vector<Transaction> stream = RandomStream(param);
  MomentMiner dense(param.capacity, 3, IndexRowStore::kDense);
  MomentMiner hybrid(param.capacity, 3, IndexRowStore::kHybrid);
  for (size_t i = 0; i < stream.size(); ++i) {
    dense.Append(stream[i]);
    hybrid.Append(stream[i]);
    if (i % 53 == 0 || i + 1 == stream.size()) {
      ASSERT_TRUE(dense.GetClosedFrequent().SameAs(hybrid.GetClosedFrequent()))
          << "record " << i;
    }
  }
  EXPECT_TRUE(dense.GetAllFrequent().SameAs(hybrid.GetAllFrequent()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HybridIndexFuzzTest,
    ::testing::Values(
        // partial fill: stream shorter than the window
        IndexFuzzCase{301, 256, 180, 12, 0.25, 0},
        // steady state with churn: stream >> window
        IndexFuzzCase{302, 128, 700, 10, 0.30, 0},
        // concept drift: rows die and dense ids recycle constantly
        IndexFuzzCase{303, 128, 600, 14, 0.20, 1},
        // window past one bitmap word, sparse rows
        IndexFuzzCase{304, 300, 900, 24, 0.08, 0},
        // dense-ish rows: most rows sit above the array edge as bitmaps
        IndexFuzzCase{305, 512, 1500, 6, 0.60, 0},
        // drift + bigger alphabet: array churn, rows dying and recycling
        IndexFuzzCase{306, 200, 800, 40, 0.06, 2}));

// --- Engine release logs across stores and thread counts --------------------

ButterflyConfig EngineConfig(bool hybrid, size_t threads) {
  ButterflyConfig config;
  config.min_support = 4;
  config.vulnerable_support = 2;
  config.epsilon = 0.1;
  config.delta = 0.4;
  config.scheme = ButterflyScheme::kHybrid;
  config.lambda = 0.4;
  config.seed = 991;
  config.threads = threads;
  config.hybrid_index = hybrid;
  return config;
}

std::vector<Transaction> EngineStream(size_t records) {
  Rng rng(4242);
  std::vector<Transaction> stream;
  for (size_t i = 0; i < records; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < 10; ++a) {
      if (rng.Bernoulli(0.35)) items.push_back(a);
    }
    if (items.empty()) items.push_back(0);
    stream.emplace_back(i + 1, Itemset(std::move(items)));
  }
  return stream;
}

TEST(HybridEngineTest, ReleaseLogsAreByteIdenticalAcrossStoresAndThreads) {
  const std::vector<Transaction> stream = EngineStream(400);
  const size_t kWindow = 96;
  const size_t kStride = 48;

  std::vector<std::vector<SanitizedItemset>> logs;
  for (bool hybrid : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      StreamPrivacyEngine engine(kWindow, EngineConfig(hybrid, threads));
      std::vector<SanitizedItemset> log;
      for (size_t i = 0; i < stream.size(); ++i) {
        engine.Append(stream[i]);
        if ((i + 1) % kStride == 0 && engine.WindowFull()) {
          ReleaseResult r = engine.Release();
          log.insert(log.end(), r.output.items().begin(),
                     r.output.items().end());
          const IndexMemoryStats memory =
              engine.miner().bitmap_index().MemoryStats();
          if (hybrid) {
            // The hybrid engine reports real compression accounting.
            EXPECT_GT(memory.index_bytes, 0u);
            EXPECT_GT(memory.dense_equivalent_bytes, 0u);
          } else {
            EXPECT_EQ(memory.index_bytes, memory.dense_equivalent_bytes);
          }
        }
      }
      logs.push_back(std::move(log));
    }
  }
  ASSERT_EQ(logs.size(), 4u);
  EXPECT_FALSE(logs[0].empty());
  for (size_t i = 1; i < logs.size(); ++i) {
    EXPECT_EQ(logs[0], logs[i]) << "variant " << i;
  }
}

// --- Checkpoint round-trips over promotion boundaries -----------------------

TEST(HybridCheckpointTest, RestoreThenCheckpointReproducesTheSnapshot) {
  // Drive the hybrid engine past a release, then require Checkpoint →
  // Restore → Checkpoint to reproduce the snapshot bytes exactly: the
  // window and the policy state it holds, from which restore derives the
  // index and the tree.
  const std::vector<Transaction> stream = EngineStream(300);
  StreamPrivacyEngine engine(64, EngineConfig(/*hybrid=*/true, 1));
  for (size_t i = 0; i < 200; ++i) engine.Append(stream[i]);
  (void)engine.Release();

  persist::CheckpointWriter first;
  engine.Checkpoint(&first);

  StreamPrivacyEngine restored(64, EngineConfig(/*hybrid=*/true, 1));
  persist::CheckpointReader reader(first.data());
  ASSERT_TRUE(restored.Restore(&reader).ok());

  persist::CheckpointWriter second;
  restored.Checkpoint(&second);
  EXPECT_EQ(first.data(), second.data());

  // The restored engine continues bit-identically.
  StreamPrivacyEngine live(64, EngineConfig(/*hybrid=*/true, 1));
  {
    persist::CheckpointReader again(first.data());
    ASSERT_TRUE(live.Restore(&again).ok());
  }
  for (size_t i = 200; i < stream.size(); ++i) {
    engine.Append(stream[i]);
    live.Append(stream[i]);
  }
  EXPECT_EQ(engine.Release().output.items(), live.Release().output.items());
}

TEST(HybridCheckpointTest, KillAndRestoreAcrossPromotionBoundaries) {
  // Checkpoint at many cut points — including mid-window, while containers
  // are near their array/run/bitmap conversion thresholds — and verify each
  // restored engine's remaining releases match the uninterrupted run.
  const std::vector<Transaction> stream = EngineStream(320);
  const size_t kWindow = 64;
  const size_t kStride = 32;

  ButterflyConfig config = EngineConfig(/*hybrid=*/true, 1);
  std::vector<SanitizedItemset> full_log;
  {
    StreamPrivacyEngine engine(kWindow, config);
    for (size_t i = 0; i < stream.size(); ++i) {
      engine.Append(stream[i]);
      if ((i + 1) % kStride == 0 && engine.WindowFull()) {
        ReleaseResult r = engine.Release();
        full_log.insert(full_log.end(), r.output.items().begin(),
                        r.output.items().end());
      }
    }
  }

  for (size_t cut : {size_t{70}, size_t{96}, size_t{111}, size_t{200}}) {
    StreamPrivacyEngine engine(kWindow, config);
    std::vector<SanitizedItemset> log;
    for (size_t i = 0; i < cut; ++i) {
      engine.Append(stream[i]);
      if ((i + 1) % kStride == 0 && engine.WindowFull()) {
        ReleaseResult r = engine.Release();
        log.insert(log.end(), r.output.items().begin(), r.output.items().end());
      }
    }
    // "Kill": serialize, drop the engine, restore a fresh one from bytes.
    persist::CheckpointWriter writer;
    engine.Checkpoint(&writer);
    StreamPrivacyEngine restored(kWindow, config);
    persist::CheckpointReader reader(writer.data());
    ASSERT_TRUE(restored.Restore(&reader).ok()) << "cut " << cut;

    for (size_t i = cut; i < stream.size(); ++i) {
      restored.Append(stream[i]);
      if ((i + 1) % kStride == 0 && restored.WindowFull()) {
        ReleaseResult r = restored.Release();
        log.insert(log.end(), r.output.items().begin(), r.output.items().end());
      }
    }
    EXPECT_EQ(log, full_log) << "cut " << cut;
  }
}

TEST(HybridCheckpointTest, StoreModeMismatchIsRejected) {
  StreamPrivacyEngine hybrid(64, EngineConfig(/*hybrid=*/true, 1));
  const std::vector<Transaction> stream = EngineStream(80);
  for (const Transaction& t : stream) hybrid.Append(t);
  persist::CheckpointWriter writer;
  hybrid.Checkpoint(&writer);

  StreamPrivacyEngine dense(64, EngineConfig(/*hybrid=*/false, 1));
  persist::CheckpointReader reader(writer.data());
  EXPECT_FALSE(dense.Restore(&reader).ok());
}

// --- The workload the hybrid store exists for -------------------------------

TEST(HybridIndexScaleTest, PowerLawAlphabetCompressesTheRowTable) {
  // A scaled-down WebScale1M shape (same zipf skew + background noise, fewer
  // items so the test stays fast): most rows should sit in array form and
  // total payload should undercut the dense equivalent by a wide margin.
  QuestConfig config = ProfileConfig(DatasetProfile::kWebScale1M,
                                     /*num_transactions=*/3000, /*seed=*/11);
  config.num_items = 60000;
  config.num_patterns = 120;
  auto dataset = GenerateQuest(config);
  ASSERT_TRUE(dataset.ok());

  const size_t kWindow = 2000;
  SlidingWindow window(kWindow);
  WindowBitmapIndex index(kWindow, IndexRowStore::kHybrid);
  for (const Transaction& t : *dataset) {
    std::optional<Transaction> evicted = window.Append(t);
    const Transaction& added = window.transactions().back();
    index.Apply(&added, evicted ? &*evicted : nullptr);
  }
  ASSERT_GT(index.live_items(), 1000u);  // the long tail actually showed up

  IndexMemoryStats stats = index.MemoryStats();
  EXPECT_GT(stats.array_rows, stats.bitmap_rows);  // sparse rows dominate
  // The acceptance bar for the full profile is <= 10% of dense; at this
  // reduced scale the margin is even wider. Assert the 10% bound here so the
  // property is pinned by a tier-1 test, not only by the bench.
  EXPECT_LT(stats.index_bytes, stats.dense_equivalent_bytes / 10)
      << stats.index_bytes << " vs dense-equivalent "
      << stats.dense_equivalent_bytes;
}

}  // namespace
}  // namespace butterfly
