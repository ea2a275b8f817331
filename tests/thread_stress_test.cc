/// \file thread_stress_test.cc
/// \brief Stress load for the pool and for concurrent engines, sized for
/// -DBUTTERFLY_SANITIZER=thread builds: many overlapping ParallelFor rounds,
/// and independent engines sanitizing at once on separate threads — the
/// shape of a fleet, where each release runs on one thread and engines
/// share nothing (each owns its republish cache, DP scratch and epoch).
/// Under a plain build it doubles as a scheduling smoke test.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/butterfly.h"

namespace butterfly {
namespace {

MiningOutput DenseWindow(size_t count, Support base) {
  MiningOutput out(25);
  Support support = base;
  for (size_t i = 0; i < count; ++i) {
    if (i % 5 == 0) ++support;
    Item item = static_cast<Item>(2 * i + 1);
    out.Add(Itemset::FromSorted({item, item + 1}), support);
  }
  out.Seal();
  return out;
}

ButterflyConfig StressConfig(ButterflyScheme scheme, int64_t threads) {
  ButterflyConfig config;
  config.epsilon = 0.016;
  config.delta = 0.4;
  config.min_support = 25;
  config.vulnerable_support = 5;
  config.scheme = scheme;
  config.threads = threads;
  return config;
}

TEST(ThreadStressTest, RepeatedParallelForRounds) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(&pool, 512, 8, [&](size_t begin, size_t end) {
      uint64_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      total.fetch_add(local);
    });
  }
  EXPECT_EQ(total.load(), 200ull * (511ull * 512ull / 2));
}

TEST(ThreadStressTest, ConcurrentEnginesKeepTheirRepublishPins) {
  // Four engines with the republish cache run the same epoch sequence at
  // once, one per thread. One drift in the middle changes every support, so
  // that release takes fresh draws; every other epoch repeats its
  // predecessor and must republish the pinned values.
  MiningOutput stable = DenseWindow(4000, 30);
  MiningOutput drifted = DenseWindow(4000, 31);
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int e = 0; e < 4; ++e) {
    callers.emplace_back([&, e] {
      ButterflyConfig config = StressConfig(ButterflyScheme::kHybrid, 1);
      config.seed = 0x2000 + static_cast<uint64_t>(e);
      ButterflyEngine engine(config);
      SanitizedOutput previous;
      for (int epoch = 0; epoch < 12; ++epoch) {
        const bool drift = (epoch == 6);
        const MiningOutput& raw = drift ? drifted : stable;
        SanitizedOutput release = engine.Sanitize(raw, 100000);
        if (release.size() != raw.size()) failures.fetch_add(1);
        if (epoch > 0 && !drift && epoch != 7) {
          for (const SanitizedItemset& item : previous.items()) {
            if (release.SanitizedSupportOf(item.itemset) !=
                item.sanitized_support) {
              failures.fetch_add(1);
              break;
            }
          }
        }
        previous = std::move(release);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadStressTest, ConcurrentEnginesMatchTheirSerialTwins) {
  // Several engines sanitize simultaneously from caller threads. Each one
  // configured with threads=4 must match its threads=1 twin.
  MiningOutput raw = DenseWindow(2000, 40);
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int e = 0; e < 4; ++e) {
    callers.emplace_back([&, e] {
      ButterflyConfig wide = StressConfig(ButterflyScheme::kBasic, 4);
      wide.seed = 0x1000 + static_cast<uint64_t>(e);
      wide.republish_cache = false;
      ButterflyConfig serial = wide;
      serial.threads = 1;
      ButterflyEngine w(wide), s(serial);
      for (int round = 0; round < 5; ++round) {
        if (!(w.Sanitize(raw, 100000).items() ==
              s.Sanitize(raw, 100000).items())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace butterfly
