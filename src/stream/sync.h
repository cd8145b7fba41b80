// Capability-annotated synchronization primitives for the concurrent
// runtime. Every mutex and condition variable in src/stream, src/exec and
// src/obs goes through the wrappers below, so Clang's -Wthread-safety
// capability analysis can prove — at compile time, for all interleavings —
// that each access to GUARDED_BY state happens under its lock and that
// every REQUIRES contract is met at every call site. Under GCC (the
// default local toolchain) the annotation macros expand to nothing and the
// wrappers cost exactly what the std primitives they hold cost; the
// clang-threadsafety CI job is the gate that keeps the annotations true.
//
// Conventions (full prose in docs/CONCURRENCY.md):
//   - Mutable state shared between threads is either std::atomic or
//     GUARDED_BY a Mutex. No third category.
//   - Private helpers that assume a held lock are annotated REQUIRES(mu)
//     instead of carrying a "caller must hold mu" comment.
//   - The escape hatch, ts_unchecked_read, is for reads the analysis
//     cannot see are ordered (e.g. a read after the writing thread was
//     joined). Every use must carry a written invariant naming the
//     happens-before edge it relies on.
//
// Lock ranks: the one property capability analysis cannot check is lock
// *order*. The runtime's discipline is a two-level rank —
//     LockRank::kChannel (Channel/Semaphore/BufferPool, and any other leaf
//         lock that never acquires another lock underneath)
//   < LockRank::kTracerShard (obs::Tracer shard and thread-name locks)
// — acquiring a lock of rank <= the highest rank already held on this
// thread aborts in checked builds (!NDEBUG, or -DKQ_LOCK_RANK_CHECKS which
// the TSan CI job sets so the assertion runs under CI's RelWithDebInfo).
// Unranked locks (LockRank::kNone) opt out: they are leaves that provably
// never nest with ranked locks (e.g. exec::ThreadPool's queue lock, which
// is released before any task body runs).
#pragma once

#include <pthread.h>

#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

// ------------------------------------------------------------- attributes --
// The standard Clang thread-safety attribute spellings (see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Non-Clang
// compilers see empty macros.
#if defined(__clang__) && !defined(SWIG)
#define KQ_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define KQ_THREAD_ANNOTATION__(x)
#endif

// Declares a class to be a capability (a lock the analysis tracks).
#define CAPABILITY(x) KQ_THREAD_ANNOTATION__(capability(x))
// Declares an RAII class that acquires on construction, releases on
// destruction.
#define SCOPED_CAPABILITY KQ_THREAD_ANNOTATION__(scoped_lockable)
// Data members: may only be read/written while holding the capability.
#define GUARDED_BY(x) KQ_THREAD_ANNOTATION__(guarded_by(x))
// Pointer members: the pointee (not the pointer) is guarded.
#define PT_GUARDED_BY(x) KQ_THREAD_ANNOTATION__(pt_guarded_by(x))
// Functions: the caller must hold the capability (exclusively / shared).
#define REQUIRES(...) \
  KQ_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  KQ_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
// Functions: acquire/release the capability (exclusively / shared).
#define ACQUIRE(...) KQ_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  KQ_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) KQ_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  KQ_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
// Functions: acquire only on a `true` (or as declared) return value.
#define TRY_ACQUIRE(...) \
  KQ_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
// Functions: the caller must NOT hold the capability (deadlock guard for
// public entry points of a class that locks internally).
#define EXCLUDES(...) KQ_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
// Functions: runtime-assert the capability is held (teaches the analysis a
// fact it cannot derive).
#define ASSERT_CAPABILITY(x) KQ_THREAD_ANNOTATION__(assert_capability(x))
// Functions returning a reference to a capability (lets callers write
// GUARDED_BY(obj.mutex())).
#define RETURN_CAPABILITY(x) KQ_THREAD_ANNOTATION__(lock_returned(x))
// Last resort: skip analysis of one function body entirely. Prefer
// ts_unchecked_read for single reads.
#define NO_THREAD_SAFETY_ANALYSIS \
  KQ_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace kq::sync {

// ------------------------------------------------------------ lock ranks --
// See the header comment. Ranked acquisition order is strictly increasing;
// kNone opts a lock out of checking.
enum class LockRank : int {
  kNone = -1,
  kChannel = 0,      // stream::Channel / Semaphore / BufferPool
  kTracerShard = 1,  // obs::Tracer shard + thread-name locks
};

#if !defined(NDEBUG) || defined(KQ_LOCK_RANK_CHECKS)
#define KQ_LOCK_RANK_CHECKS_ENABLED 1
#else
#define KQ_LOCK_RANK_CHECKS_ENABLED 0
#endif

namespace detail {
#if KQ_LOCK_RANK_CHECKS_ENABLED
inline constexpr int kNumRanks = 2;
// Per-thread count of held locks at each rank. Plain thread_local state:
// only the owning thread ever touches its own counters.
inline thread_local int held_by_rank[kNumRanks] = {};

[[noreturn]] inline void rank_violation(int acquiring, int held) {
  std::fprintf(stderr,
               "lock-rank violation: acquiring rank %d while holding rank "
               "%d (order is channel < tracer-shard, strictly increasing)\n",
               acquiring, held);
  std::abort();
}

inline void rank_acquired(LockRank rank) {
  if (rank == LockRank::kNone) return;
  const int r = static_cast<int>(rank);
  // A new lock must out-rank everything already held — equal rank is also
  // a violation (two channel-class locks held at once has no defined
  // order, and is one self-deadlock away from a bug).
  for (int held = r; held < kNumRanks; ++held) {
    if (held_by_rank[held] != 0) rank_violation(r, held);
  }
  ++held_by_rank[r];
}

inline void rank_released(LockRank rank) {
  if (rank == LockRank::kNone) return;
  --held_by_rank[static_cast<int>(rank)];
}
#else
inline void rank_acquired(LockRank) {}
inline void rank_released(LockRank) {}
#endif
}  // namespace detail

// ----------------------------------------------------------------- Mutex --
// std::mutex with a capability the analysis tracks and an optional lock
// rank. Prefer MutexLock over calling lock()/unlock() directly.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kNone) : rank_(rank) {}

  // Ends the mutex's life where ThreadSanitizer can see it. libstdc++'s
  // std::mutex destructor is trivial, so TSan would keep a dead mutex's
  // lock-order edges and pin them on the next mutex built at the same
  // address (a reused stack slot, or a freed pool's lock reused by a
  // run's): a false lock-order inversion. Destroying an unlocked mutex
  // is also valid outside TSan, where it costs a few instructions.
  ~Mutex() {
    [[maybe_unused]] const int rc = pthread_mutex_destroy(mu_.native_handle());
    assert(rc == 0 && "sync::Mutex destroyed while locked");
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    detail::rank_acquired(rank_);
  }
  void unlock() RELEASE() {
    detail::rank_released(rank_);
    mu_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    detail::rank_acquired(rank_);
    return true;
  }

  LockRank rank() const { return rank_; }

 private:
  friend class MutexLock;
  std::mutex mu_;
  const LockRank rank_;
};

// ------------------------------------------------------------- MutexLock --
// RAII scoped lock over a Mutex (the std::lock_guard / std::unique_lock of
// this header — there is one shape, and it supports CondVar waits).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), lock_(mu.mu_) {
    detail::rank_acquired(mu_.rank());
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    detail::rank_released(mu_.rank());
    // lock_ unlocks the underlying std::mutex after this body.
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  std::unique_lock<std::mutex> lock_;
};

// --------------------------------------------------------------- CondVar --
// Condition variable bound to Mutex/MutexLock. wait() asserts (at runtime)
// that the caller actually holds the lock it passes; the *static* half of
// the contract lives at call sites — waits happen inside REQUIRES(mu)
// helpers whose predicate reads are then visibly lock-protected, e.g.
//
//   void Channel::wait_not_full(MutexLock& lock) REQUIRES(mu_) {
//     while (!(closed_ || queue_.size() < capacity_)) not_full_.wait(lock);
//   }
//
// (A condition wait releases and reacquires the mutex internally; that is
// invisible to — and sound under — the analysis, because the capability is
// held again whenever control returns to the annotated function.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) {
    assert(lock.lock_.owns_lock() && "CondVar::wait without the lock held");
    detail::rank_released(lock.mu_.rank());  // the wait releases the mutex
    cv_.wait(lock.lock_);
    detail::rank_acquired(lock.mu_.rank());
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// ----------------------------------------------------------- SharedMutex --
// Reader/writer capability over std::shared_mutex (used by vfs::Vfs, whose
// read side is hit concurrently by worker threads during synthesis).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// Exclusive (writer) scoped lock.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() RELEASE() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

// Shared (reader) scoped lock.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() RELEASE() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

// ------------------------------------------------------ ts_unchecked_read --
// Reads a GUARDED_BY value without the analysis seeing the access. The only
// legitimate uses are reads whose ordering comes from an edge the analysis
// cannot express — typically "the writing thread has been joined". Every
// call site must carry a comment naming that invariant; the clang CI job
// plus review keep this honest (grep TS_UNCHECKED / ts_unchecked_read).
template <typename T>
inline const T& ts_unchecked_read(const T& value) NO_THREAD_SAFETY_ANALYSIS {
  return value;
}

}  // namespace kq::sync
