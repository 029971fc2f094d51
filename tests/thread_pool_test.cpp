// Unit tests for the parallel execution substrate: ThreadPool lifecycle,
// exception surfacing, oversubscription, graceful shutdown with queued
// work, nested parallel_for, and the thread-safe log sink. This binary is
// the core of the sanitizer gates — scripts/ci.sh runs it under ASan/UBSan
// and again under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/log.hpp"
#include "support/thread_pool.hpp"

namespace owl::support {
namespace {

TEST(ThreadPoolTest, ConstructionTeardownLoop) {
  // Pools must come up and down cleanly even when nothing is submitted —
  // repeated to shake out join/notify races under the sanitizers.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
  }
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(1);
    pool.submit([] {}).get();
  }
}

TEST(ThreadPoolTest, ZeroSizesToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), ThreadPool::default_jobs());
}

TEST(ThreadPoolTest, SubmitRunsTasksOnWorkerThreads) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> on_caller{false};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&] {
      if (std::this_thread::get_id() == caller) on_caller = true;
      ran.fetch_add(1);
    }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_FALSE(on_caller.load());
}

TEST(ThreadPoolTest, SubmitSurfacesExceptionAtGet) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survived the throw and keeps serving tasks.
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DroppedFutureDoesNotTerminate) {
  // A task whose future is discarded still runs; its exception is absorbed
  // by the packaged_task instead of tearing down the worker.
  ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("nobody listening"); });
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 257;  // not a multiple of the pool size
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForOversubscription) {
  // Far more work items than workers: everything still completes, and the
  // calling thread is allowed to help drain the slots.
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10'000, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 10'000u * 9'999u / 2);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Indices 3 and 7 throw; the rethrown exception must be index 3's
  // regardless of which worker reached which index first.
  for (int round = 0; round < 10; ++round) {
    try {
      pool.parallel_for(16, [&](std::size_t i) {
        if (i == 7) throw std::runtime_error("seven");
        if (i == 3) throw std::runtime_error("three");
      });
      FAIL() << "parallel_for swallowed the exceptions";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "three");
    }
  }
}

TEST(ThreadPoolTest, ParallelForRunsRemainingSlotsAfterThrow) {
  // One bad slot must not cancel the rest — callers rely on every index
  // having executed when the exception arrives (deterministic fold).
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i == 0) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NestedParallelForOnSingleThreadPool) {
  // A worker that issues a nested parallel_for on a saturated pool must
  // not deadlock: the nested caller helps execute its own slots.
  ThreadPool pool(1);
  std::atomic<int> inner_runs{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  // Graceful destruction: tasks already queued when the destructor starts
  // still run to completion (no silent loss).
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // Head task blocks the single worker so the rest stay queued until
    // the destructor begins.
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    for (int i = 0; i < 16; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int runs = 0;
  pool.parallel_for(0, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(LogSinkTest, ConcurrentLoggingKeepsLinesIntact) {
  // N threads logging concurrently must produce exactly N lines, each
  // arriving whole at the sink — never interleaved mid-line.
  constexpr int kThreads = 8;
  constexpr int kLinesPerThread = 50;
  std::vector<std::string> captured;
  const LogLevel previous_level = log_level();
  set_log_level(LogLevel::kInfo);
  LogSink previous = set_log_sink([&](LogLevel, const std::string& line) {
    captured.push_back(line);  // sink runs under the logger mutex
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        OWL_LOG(kInfo) << "thread=" << t << " line=" << i << " tail";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  set_log_sink(std::move(previous));
  set_log_level(previous_level);

  ASSERT_EQ(captured.size(),
            static_cast<std::size_t>(kThreads) * kLinesPerThread);
  std::set<std::string> unique(captured.begin(), captured.end());
  EXPECT_EQ(unique.size(), captured.size()) << "duplicated or torn lines";
  for (const std::string& line : captured) {
    EXPECT_EQ(line.rfind("thread=", 0), 0u) << "torn line: " << line;
    EXPECT_NE(line.find(" tail"), std::string::npos) << "torn line: " << line;
  }
}

TEST(LogSinkTest, EmptySinkRestoresStderr) {
  LogSink previous = set_log_sink([](LogLevel, const std::string&) {});
  set_log_sink(std::move(previous));  // back to the default stderr path
  OWL_LOG(kDebug) << "below threshold, must not crash";
}

}  // namespace
}  // namespace owl::support
