#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>

#include "common/mutex.h"

namespace butterfly {

namespace {
thread_local bool t_on_worker_thread = false;
}  // namespace

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

ThreadPool::ThreadPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  t_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t ResolveThreadCount(int64_t requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool* SharedPool(size_t threads) {
  if (threads <= 1) return nullptr;
  // Function-local static, not a member: lock-discipline scoping does not
  // apply, and the one guarded object (the registry map) lives right below.
  // bfly-lint: allow(lock-discipline) function-local registry lock; the
  // guarded map is the adjacent static and never escapes this function
  static std::mutex registry_mu;
  // Leaked deliberately: worker threads must not be joined from static
  // destructors racing other teardown; the OS reclaims them at exit.
  static auto* registry = new std::map<size_t, std::unique_ptr<ThreadPool>>();
  std::lock_guard<std::mutex> lock(registry_mu);
  std::unique_ptr<ThreadPool>& slot = (*registry)[threads];
  if (!slot) slot = std::make_unique<ThreadPool>(threads - 1);
  return slot.get();
}

void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || pool->worker_count() == 0 || n <= grain ||
      ThreadPool::OnWorkerThread()) {
    for (size_t begin = 0; begin < n; begin += grain) {
      body(begin, std::min(begin + grain, n));
    }
    return;
  }

  // Shared per-call state, heap-allocated so straggler workers finishing
  // after the caller's rethrow still touch valid memory.
  struct Call {
    // bfly-lint: allow(raw-atomic) the chunk cursor is the one lock-free
    // protocol in src/: a participant claims [begin, begin + grain) with a
    // single fetch_add, and every other shared field is either written
    // before Submit (whose queue lock publishes it) or guarded by `mu`.
    std::atomic<size_t> cursor{0};
    size_t n = 0;
    size_t grain = 0;
    const std::function<void(size_t, size_t)>* body = nullptr;
    Mutex mu;
    CondVar done_cv;
    size_t pending BFLY_GUARDED_BY(mu) = 0;
    std::exception_ptr error BFLY_GUARDED_BY(mu);
  };
  auto call = std::make_shared<Call>();
  call->n = n;
  call->grain = grain;
  call->body = &body;

  auto run_chunks = [call] {
    try {
      for (;;) {
        size_t begin = call->cursor.fetch_add(call->grain);
        if (begin >= call->n) break;
        (*call->body)(begin, std::min(begin + call->grain, call->n));
      }
    } catch (...) {
      MutexLock lock(&call->mu);
      if (!call->error) call->error = std::current_exception();
    }
  };

  // The caller takes claims too, so a call with c claims needs at most
  // c - 1 helpers (c >= 2 here, since n > grain).
  const size_t claims = (n - 1) / grain + 1;
  const size_t helpers = std::min(pool->worker_count(), claims - 1);
  {
    MutexLock lock(&call->mu);
    call->pending = helpers;
  }
  for (size_t i = 0; i < helpers; ++i) {
    pool->Submit([call, run_chunks] {
      run_chunks();
      MutexLock lock(&call->mu);
      if (--call->pending == 0) call->done_cv.NotifyOne();
    });
  }

  run_chunks();
  MutexLock lock(&call->mu);
  while (call->pending != 0) call->done_cv.Wait(&call->mu);
  if (call->error) std::rethrow_exception(call->error);
}

}  // namespace butterfly
