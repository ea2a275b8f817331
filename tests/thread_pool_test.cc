#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace butterfly {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  // Destruction drains the queue; reconstruct scope to force the join.
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) pool.Submit([&done] { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ResolveThreadCountTest, PositivePassesThroughZeroMeansAuto) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_GE(ResolveThreadCount(-3), 1u);
}

TEST(SharedPoolTest, SerialWidthHasNoPool) {
  EXPECT_EQ(SharedPool(0), nullptr);
  EXPECT_EQ(SharedPool(1), nullptr);
}

TEST(SharedPoolTest, SameWidthSharesOneInstance) {
  ThreadPool* a = SharedPool(3);
  ThreadPool* b = SharedPool(3);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->worker_count(), 2u);
  EXPECT_NE(SharedPool(5), a);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(threads, n, /*grain=*/7, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelForTest, EveryClaimIsExactlyGrainWide) {
  // Claim k is [k * grain, min((k + 1) * grain, n)), on the serial path
  // (1 thread) as on the pool; n = 100 leaves a short last claim for 7 and
  // 16, and n <= grain runs as one claim.
  for (size_t threads = 1; threads <= 4; ++threads) {
    for (size_t grain : {size_t{1}, size_t{7}, size_t{16}}) {
      for (size_t n : {size_t{100}, grain}) {
        std::mutex mu;
        std::vector<std::pair<size_t, size_t>> claims;
        ParallelFor(threads, n, grain, [&](size_t begin, size_t end) {
          std::lock_guard<std::mutex> lock(mu);
          claims.emplace_back(begin, end);
        });
        std::sort(claims.begin(), claims.end());
        ASSERT_EQ(claims.size(), (n + grain - 1) / grain)
            << threads << " threads, grain " << grain << ", n " << n;
        for (size_t k = 0; k < claims.size(); ++k) {
          EXPECT_EQ(claims[k].first, k * grain);
          EXPECT_EQ(claims[k].second, std::min((k + 1) * grain, n))
              << threads << " threads, grain " << grain << ", claim " << k;
        }
      }
    }
  }
}

TEST(ParallelForTest, EmptyAndTinyRangesRunInline) {
  int calls = 0;
  ParallelFor(SharedPool(4), 0, 8, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(SharedPool(4), 5, 8, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<int> hits(1000, 0);  // plain vector: serial writes only
  ParallelFor(nullptr, hits.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ParallelForTest, NestedCallFromWorkerRunsInline) {
  std::atomic<size_t> total{0};
  ParallelFor(SharedPool(4), 16, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Nested: must not deadlock; runs inline on the worker.
      ParallelFor(SharedPool(4), 10, 1,
                  [&](size_t b, size_t e) { total.fetch_add(e - b); });
    }
  });
  EXPECT_EQ(total.load(), 160u);
}

TEST(ParallelForTest, RethrowsBodyException) {
  EXPECT_THROW(
      ParallelFor(SharedPool(4), 1000, 1,
                  [&](size_t begin, size_t) {
                    if (begin == 0) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, SkewedBodiesStillCoverEverything) {
  const size_t n = 2000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(SharedPool(3), n, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (i % 97 == 0) {  // skew: occasional heavy iteration
        volatile double sink = 0;
        for (int k = 0; k < 20000; ++k) sink = sink + k;
      }
      hits[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace butterfly
