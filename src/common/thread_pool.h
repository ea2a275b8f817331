/// \file thread_pool.h
/// \brief A small reusable worker pool and a chunked ParallelFor on top of
/// it (no external deps). Its users: EngineFleet::Pump (one tenant per
/// claim) and the adversary's breach finder. A single release never splits
/// across it.
///
/// Design points:
///  * A pool of size `threads` spawns `threads - 1` workers; the caller of
///    ParallelFor is the remaining participant, so `threads == 1` means
///    strictly serial execution with no pool at all.
///  * Work is handed out as [begin, end) chunks claimed from a shared atomic
///    cursor, which load-balances skewed iterations without a task queue
///    allocation per chunk.
///  * ParallelFor called from inside a worker runs inline (no nested
///    dispatch), so library code may use it without knowing its caller.
///  * Determinism is the caller's contract: bodies must write only to
///    disjoint, index-addressed slots (a fleet tenant's engine, for
///    instance, is touched by exactly one participant per Pump).

#ifndef BUTTERFLY_COMMON_THREAD_POOL_H_
#define BUTTERFLY_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace butterfly {

/// A fixed-size worker pool. Tasks are arbitrary closures; submission is
/// thread-safe. The destructor drains the queue and joins every worker.
class ThreadPool {
 public:
  /// \param workers number of worker threads to spawn (may be 0).
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  /// Enqueues one task for execution on some worker. Fire-and-forget: the
  /// pool reports neither completion nor failure — use ParallelFor when the
  /// caller must wait for the work and see its exceptions.
  void Submit(std::function<void()> task) BFLY_EXCLUDES(mu_);

  /// True iff the calling thread is a worker of *some* ThreadPool; used to
  /// run nested ParallelFor calls inline instead of deadlocking on the pool.
  static bool OnWorkerThread();

 private:
  void WorkerLoop() BFLY_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ BFLY_GUARDED_BY(mu_);
  bool stopping_ BFLY_GUARDED_BY(mu_) = false;
  /// Written once by the constructor before any concurrency exists, joined
  /// by the destructor; never mutated in between — no guard needed.
  std::vector<std::thread> workers_;
};

/// Total parallelism to use for a requested thread count: values <= 0 mean
/// "auto" (hardware concurrency, at least 1); positive values are taken as
/// given.
size_t ResolveThreadCount(int64_t requested);

/// A process-wide pool with `threads - 1` workers, built lazily and shared by
/// every caller requesting the same width. Returns nullptr for threads <= 1
/// (serial). Pools live until process exit.
ThreadPool* SharedPool(size_t threads);

/// Runs body(begin, end) over a partition of [0, n), on the caller plus the
/// pool's workers. Chunks are at least `grain` wide; the caller participates
/// and the call returns only when every index is processed. With a null pool
/// (or n <= grain, or when already on a worker thread) the body runs inline
/// as body(0, n). The first exception thrown by a body is rethrown on the
/// caller after all participants stop.
void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// Convenience overload resolving the shared pool for a thread count.
inline void ParallelFor(size_t threads, size_t n, size_t grain,
                        const std::function<void(size_t, size_t)>& body) {
  ParallelFor(SharedPool(threads), n, grain, body);
}

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_THREAD_POOL_H_
