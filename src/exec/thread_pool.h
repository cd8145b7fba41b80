// A fixed-size worker pool with a FIFO task queue. Workers are joined in
// the destructor (RAII; no detached threads), and tasks communicate results
// through futures so worker exceptions surface at the call site.
//
// Thread safety: the queue and the shutdown flag are GUARDED_BY(mu_)
// (sync::Mutex; checked by the clang-threadsafety CI job). mu_ is unranked:
// it is a leaf lock, released before any task body runs, so it can never
// participate in an ordering cycle with the dataflow's channel or tracer
// locks.
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "stream/sync.h"

namespace kq::exec {

class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Work stealing: pops one queued task (if any) and runs it on the calling
  // thread. Returns false when the queue was empty. Its one caller is a
  // SpillMerger waiting for a key range it submitted (stream/spill.cpp).
  // A parallel node's feeder and collector block instead, so only pool
  // threads run slices: a slice stolen by a feeder out of slots made one
  // runner more than there are cores, and since slots free in input order,
  // the workers done with later slices idled until it finished. Safe from
  // any thread: tasks are self-contained closures and run outside mu_.
  bool try_run_one() EXCLUDES(mu_);

  // Enqueues `fn`; the future delivers its result (or exception).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      sync::MutexLock lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  sync::Mutex mu_;
  sync::CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace kq::exec
