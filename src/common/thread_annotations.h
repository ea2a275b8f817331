/// \file thread_annotations.h
/// \brief Clang thread-safety-analysis attribute macros (no-ops elsewhere).
///
/// The concurrency here is deliberate and narrow — the pool's task queue and
/// ParallelFor barrier, the fleet's ingest queues and pump lock — but each
/// of those is exactly the kind of protocol a refactor can silently break:
/// TSAN only sees the interleavings a test happens to schedule, while
/// Clang's `-Wthread-safety` analysis proves lock discipline on every path
/// at compile time. These macros carry the annotations; under any compiler
/// without the attribute (GCC, MSVC) they expand to nothing, so the tree
/// builds identically everywhere and the `tsa` CMake preset
/// (`clang++ -Wthread-safety -Werror`) is the enforcement point.
///
/// Annotate with the project wrappers from common/mutex.h (`Mutex`,
/// `MutexLock`, `CondVar`): libstdc++'s `std::mutex` carries no capability
/// attributes, so guarding state with a bare `std::mutex` is invisible to
/// the analysis — and flagged by bfly_lint's `lock-discipline` rule.
///
/// Naming follows the Clang documentation's canonical set
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), prefixed BFLY_.

#ifndef BUTTERFLY_COMMON_THREAD_ANNOTATIONS_H_
#define BUTTERFLY_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define BFLY_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define BFLY_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op
#endif

/// Declares a class to be a capability (lockable). Applied to Mutex.
#define BFLY_CAPABILITY(x) BFLY_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Declares an RAII class whose lifetime equals a critical section.
#define BFLY_SCOPED_CAPABILITY \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// A data member readable/writable only while holding \p x.
#define BFLY_GUARDED_BY(x) BFLY_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// A pointer member whose *pointee* is protected by \p x.
#define BFLY_PT_GUARDED_BY(x) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// Lock-ordering edges, for deadlock detection.
#define BFLY_ACQUIRED_BEFORE(...) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))
#define BFLY_ACQUIRED_AFTER(...) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))

/// The function must be called with the given capabilities held.
#define BFLY_REQUIRES(...) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// The function acquires the capability (held on return, not on entry).
#define BFLY_ACQUIRE(...) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// The function releases the capability (held on entry, not on return).
#define BFLY_RELEASE(...) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns \p success.
#define BFLY_TRY_ACQUIRE(...) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

/// The function must be called *without* the given capabilities held
/// (it acquires them itself; calling with them held would deadlock).
#define BFLY_EXCLUDES(...) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define BFLY_RETURN_CAPABILITY(x) \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Escape hatch: turns the analysis off for one function. Reserve for
/// low-level primitives whose correctness is argued in a comment (e.g.
/// CondVar::Wait, which releases and reacquires through std internals the
/// analysis cannot see).
#define BFLY_NO_THREAD_SAFETY_ANALYSIS \
  BFLY_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

#endif  // BUTTERFLY_COMMON_THREAD_ANNOTATIONS_H_
