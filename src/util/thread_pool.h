// Fixed-size thread pool used to run independent benchmark sweep points in
// parallel, to fan the sharded façade's batches out across its shards,
// and to back the ingest pipeline's background apply worker. Each
// benchmark sweep point owns its own simulated device and RNG seed, so
// points are embarrassingly parallel and results stay deterministic; a
// single-thread pool doubles as a FIFO serial executor (tasks run in
// submission order), which is what the pipeline relies on.
//
// parallelFor is a fork-join in which the calling thread is one of the
// participants: it and up to min(n - 1, threadCount()) helper queue
// entries claim indices from one shared atomic counter, so the caller
// runs iterations itself instead of sleeping through a hand-off, and no
// future is created. The per-call state is shared by the caller and its
// helpers, so a helper that wakes after every index was claimed (even
// after the call returned) claims nothing and exits without touching fn.
//
// Locking discipline (compiler-verified, see util/thread_annotations.h):
// mutex_ guards the queue, the active-task count, and the stop flag;
// every public method acquires it internally, so the pool is safe to use
// from any number of submitter threads concurrently with its workers.
// A parallelFor call's completion count and first error sit under that
// call's own mutex.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace exthash {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future reports its result (or exception).
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>>
      EXTHASH_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      util::MutexLock lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for every i in [begin, end): the caller and up to
  /// min(n - 1, threadCount()) helpers claim indices until none is left
  /// (n == 1 runs on the caller's thread and enqueues nothing). Returns
  /// once every iteration has finished; if any threw, rethrows the error
  /// of the lowest index that threw. Any number of threads may call it at
  /// once, a pool task included: the caller alone can finish the range.
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn)
      EXTHASH_EXCLUDES(mutex_);

  /// Tasks not yet finished: queued plus currently executing. A snapshot —
  /// by the time the caller looks, more tasks may have been submitted or
  /// completed.
  std::size_t pendingTasks() const EXTHASH_EXCLUDES(mutex_);

  /// Block until the queue is empty and no task is executing. Tasks
  /// submitted by other threads while waiting extend the wait.
  void waitIdle() EXTHASH_EXCLUDES(mutex_);

 private:
  struct ForkJoin;  // one parallelFor call's shared state

  void workerLoop() EXTHASH_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  util::CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ EXTHASH_GUARDED_BY(mutex_);
  std::size_t active_ EXTHASH_GUARDED_BY(mutex_) = 0;  // executing tasks
  bool stop_ EXTHASH_GUARDED_BY(mutex_) = false;
};

}  // namespace exthash
