#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace exthash {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallelFor(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallelFor(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(0, 10,
                       [](std::size_t i) {
                         if (i == 7) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForOfOneRunsOnTheCallerAndEnqueuesNothing) {
  ThreadPool pool(1);
  std::mutex gate;
  gate.lock();
  pool.submit([&gate] { std::lock_guard hold(gate); });
  // The only worker is parked on the gate: a helper entry would sit in
  // the queue and show in pendingTasks().
  std::thread::id ran_on;
  pool.parallelFor(3, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 3u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.pendingTasks(), 1u);
  gate.unlock();
  pool.waitIdle();
}

TEST(ThreadPool, CallerFinishesTheRangeWhenNoHelperIsFree) {
  // Every worker is busy: the caller runs all iterations itself, and the
  // helpers that run later find nothing left to claim.
  ThreadPool pool(2);
  std::mutex gate;
  gate.lock();
  pool.submit([&gate] { std::lock_guard hold(gate); });
  pool.submit([&gate] { std::lock_guard hold(gate); });
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(50, 0);
  pool.parallelFor(0, hits.size(), [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  gate.unlock();
  pool.waitIdle();
  EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPool, EveryIterationFinishesBeforeTheLowestIndexedErrorIsThrown) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 64;
  std::atomic<std::size_t> finished{0};
  try {
    pool.parallelFor(0, kN, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("0");  // at once
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      finished.fetch_add(1);
      if (i % 9 == 0) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "parallelFor swallowed the errors";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
    EXPECT_EQ(finished.load(), kN - 1);
  }
}

TEST(ThreadPool, ConcurrentParallelForCallsOnOnePool) {
  ThreadPool pool(2);
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);
  const auto caller = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < 50; ++round) {
      pool.parallelFor(0, hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    }
  };
  std::thread a(caller, std::ref(hits_a));
  std::thread b(caller, std::ref(hits_b));
  a.join();
  b.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), 50) << i;
    EXPECT_EQ(hits_b[i].load(), 50) << i;
  }
}

TEST(ThreadPool, ManyTinyParallelForCallsInARow) {
  // Helpers often wake after their call already returned; they must find
  // the finished job and leave without running anything. Meant for TSAN.
  ThreadPool pool(3);
  std::uint64_t sum = 0;
  for (std::size_t call = 0; call < 5000; ++call) {
    std::atomic<std::uint64_t> part{0};
    pool.parallelFor(0, 4, [&](std::size_t i) { part.fetch_add(i + call); });
    sum += part.load();
  }
  // Σ_call Σ_{i<4} (i + call) = 5000·6 + 4·Σ call.
  EXPECT_EQ(sum, 5000u * 6u + 4u * (4999u * 5000u / 2u));
  pool.waitIdle();
}

TEST(ThreadPool, SubmitExceptionViaFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilAllTasksFinish) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      done.fetch_add(1);
    });
  }
  pool.waitIdle();
  EXPECT_EQ(done.load(), 64);
  EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPool, PendingTasksCountsQueuedAndRunning) {
  ThreadPool pool(1);
  std::mutex gate;
  gate.lock();
  pool.submit([&gate] { std::lock_guard hold(gate); });
  pool.submit([] {});
  // One task is parked on the gate, one is queued behind it.
  EXPECT_EQ(pool.pendingTasks(), 2u);
  gate.unlock();
  pool.waitIdle();
  EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPool, SingleThreadPoolRunsTasksInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // the pipeline's ordering contract
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 500; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 500u * 501u / 2u);
}

}  // namespace
}  // namespace exthash
