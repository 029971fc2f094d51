// Fixed-size thread pool — the execution substrate for OWL's parallel
// fan-outs (Pipeline::run_many across targets, the race verifier's
// schedule-exploration sharding, bench sweeps).
//
// Design constraints, in priority order:
//  1. One thread count: ThreadPool(N) runs parallel_for slots on N threads
//     in total — N-1 persistent workers plus the calling thread — so
//     ThreadPool(1) runs every slot inline on the caller.
//  2. Determinism support: the pool itself never reorders *results* — all
//     parallel_for slots are indexed, exceptions are surfaced by lowest
//     index, and callers fold outcomes in input order. Concurrency changes
//     wall-clock only, never bytes.
//  3. Dogfooding: a concurrency-attack detector must not ship its own
//     races. The pool is exercised under ThreadSanitizer by scripts/ci.sh
//     (build-tsan/) on every run.
//  4. No silent loss: slot exceptions are captured and the lowest-index
//     one is rethrown at the join point, never swallowed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace owl::support {

class ThreadPool {
 public:
  /// `threads == 0` sizes the pool to hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Joins the workers. No parallel_for may be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run slots: the workers plus the calling thread.
  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(0..n-1) across the pool and blocks until every index
  /// finished. The calling thread runs slots too, and only its own loop's,
  /// so the call makes progress on a busy pool and a nested parallel_for
  /// from a slot cannot deadlock. If any slots threw, the lowest-index
  /// exception is rethrown after all slots completed — deterministic
  /// regardless of scheduling.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// hardware_concurrency with a floor of 1 (the value `threads == 0`
  /// resolves to); the default for CLI --jobs.
  static unsigned default_jobs() noexcept;

 private:
  struct Loop;

  void worker_loop();
  /// Claims `loop`'s next slot, runs it with `lock` released and counts it
  /// done. Called, and returns, with `lock` held on mutex_.
  void run_slot(Loop& loop, std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable wake_;
  /// Loops with unclaimed slots, oldest first; guarded by mutex_.
  std::vector<Loop*> open_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace owl::support
