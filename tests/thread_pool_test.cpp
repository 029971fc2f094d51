// Unit tests for the parallel execution substrate: ThreadPool lifecycle,
// its thread count, exception surfacing, oversubscription, shutdown right
// after a loop, nested parallel_for, and the thread-safe log sink. This
// binary is the core of the sanitizer gates — scripts/ci.sh runs it under
// ASan/UBSan and again under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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
  // Pools must come up and down cleanly even when no loop runs —
  // repeated to shake out join/notify races under the sanitizers.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
  }
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(1);
    pool.parallel_for(1, [](std::size_t) {});
  }
}

TEST(ThreadPoolTest, ZeroSizesToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), ThreadPool::default_jobs());
}

TEST(ThreadPoolTest, ParallelForRunsOnSizeThreadsInTotal) {
  // ThreadPool(N) is N threads in total, the calling thread included, so
  // --jobs N never runs more than N slots at once. Each slot waits briefly
  // for a third one to join it; on two threads none ever does.
  {
    ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2u);
    std::atomic<int> in_flight{0};
    std::atomic<int> most{0};
    pool.parallel_for(6, [&](std::size_t) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = most.load();
      while (now > seen && !most.compare_exchange_weak(seen, now)) {
      }
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
      while (in_flight.load() < 3 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      in_flight.fetch_sub(1);
    });
    EXPECT_LE(most.load(), 2);
  }
  // One thread in total: every slot runs inline on the caller.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(32);
  pool.parallel_for(ran_on.size(), [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ran_on[i] = std::this_thread::get_id();
  });
  EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(), caller),
            static_cast<std::ptrdiff_t>(ran_on.size()));
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

TEST(ThreadPoolTest, ParallelForHandsTheRethrownExceptionToTheCaller) {
  // The caller must end up holding the last reference to the exception it
  // catches, whichever thread threw it: no worker may free that exception
  // while the caller still reads it.
  struct Recorded : std::runtime_error {
    explicit Recorded(std::vector<std::thread::id>* sink)
        : std::runtime_error("slot 0"), sink(sink) {}
    ~Recorded() override { sink->push_back(std::this_thread::get_id()); }
    std::vector<std::thread::id>* sink;
  };
  std::vector<std::thread::id> destroyed_on;
  bool caught = false;
  {
    ThreadPool pool(2);
    try {
      pool.parallel_for(2, [&](std::size_t i) {
        if (i == 0) throw Recorded(&destroyed_on);
      });
    } catch (const Recorded& error) {
      caught = true;
      EXPECT_STREQ(error.what(), "slot 0");
    }
  }
  ASSERT_TRUE(caught) << "parallel_for swallowed the exception";
  ASSERT_EQ(destroyed_on.size(), 1u);
  EXPECT_EQ(destroyed_on[0], std::this_thread::get_id());
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
  // A slot that issues a nested parallel_for on a saturated pool must not
  // deadlock: the nested caller runs its own loop's slots.
  ThreadPool pool(1);
  std::atomic<int> inner_runs{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  // Destruction right after a parallel_for, while workers may still be
  // waking up for its slots, joins cleanly and loses no slot.
  std::atomic<int> ran{0};
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 20 * 16);
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
  LogSink previous = set_log_sink([&](LogLevel, const std::string& line) {
    captured.push_back(line);  // sink runs under the logger mutex
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        OWL_LOG(kWarn) << "thread=" << t << " line=" << i << " tail";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  set_log_sink(std::move(previous));

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
  testing::internal::CaptureStderr();
  OWL_LOG(kWarn) << "back on stderr";
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[owl WARN ] back on stderr\n");
}

}  // namespace
}  // namespace owl::support
