#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace exthash {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      util::MutexLock lock(mutex_);
      --active_;
      if (active_ == 0 && queue_.empty()) idle_cv_.notify_all();
    }
  }
}

std::size_t ThreadPool::pendingTasks() const {
  util::MutexLock lock(mutex_);
  return queue_.size() + active_;
}

void ThreadPool::waitIdle() {
  util::MutexLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) idle_cv_.wait(lock);
}

// Shared by the caller and its helpers through a shared_ptr. fn is only
// called for a claimed index, and the caller does not return before every
// claimed index is done, so fn outlives each of its calls; a helper that
// claims nothing never touches it.
struct ThreadPool::ForkJoin {
  ForkJoin(std::size_t begin_index, std::size_t count,
           const std::function<void(std::size_t)>& body)
      : begin(begin_index), n(count), fn(body) {}

  /// Claim and run iterations until every index is claimed.
  void run() EXTHASH_EXCLUDES(mutex) {
    for (std::size_t i = next++; i < n; i = next++) {
      std::exception_ptr failure;
      try {
        fn(begin + i);
      } catch (...) {
        failure = std::current_exception();
      }
      util::MutexLock lock(mutex);
      if (failure && (!error || i < error_index)) {
        error = failure;
        error_index = i;
      }
      if (++done == n) finished_cv.notify_all();
    }
  }

  /// Block until every iteration has finished; rethrow the lowest-indexed
  /// error.
  void wait() EXTHASH_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    while (done != n) finished_cv.wait(lock);
    if (error) std::rethrow_exception(error);
  }

  const std::size_t begin;
  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  util::Mutex mutex;
  util::CondVar finished_cv;
  std::size_t done EXTHASH_GUARDED_BY(mutex) = 0;
  std::size_t error_index EXTHASH_GUARDED_BY(mutex) = 0;
  std::exception_ptr error EXTHASH_GUARDED_BY(mutex);
};

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (n == 1) {
    fn(begin);
    return;
  }
  auto job = std::make_shared<ForkJoin>(begin, n, fn);
  const std::size_t helpers = std::min(n - 1, threadCount());
  {
    util::MutexLock lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([job] { job->run(); });
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  job->run();
  job->wait();
}

}  // namespace exthash
