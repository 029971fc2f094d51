#include "support/thread_pool.hpp"

#include <stdexcept>
#include <utility>

namespace owl::support {

unsigned ThreadPool::default_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_jobs();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Graceful drain: even when stopping, queued work runs first; a
      // worker exits only once the queue is empty.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit on a stopping pool");
    }
    queue_.emplace_back([packaged] { (*packaged)(); });
  }
  wake_.notify_one();
  return future;
}

/// Shared state of one parallel_for call. Slots are claimed via an indexed
/// cursor; each slot's exception lands in its own pre-sized vector cell, so
/// no two threads ever touch the same cell.
struct ThreadPool::ForState {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;

  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t next = 0;
  std::size_t done = 0;
  std::vector<std::exception_ptr> errors;

  /// Claims and runs slots until none remain. Returns when the claimed
  /// cursor is exhausted (other threads may still be running theirs).
  void drive() {
    for (;;) {
      std::size_t index;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (next >= n) return;
        index = next++;
      }
      try {
        (*fn)(index);
      } catch (...) {
        errors[index] = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (++done == n) all_done.notify_all();
      }
    }
  }
};

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;
  state->errors.resize(n);

  // One driver task per worker (bounded — drivers loop over slots, so a
  // million-slot loop costs size() queue entries, not a million). The
  // caller drives too: on a saturated or single-thread pool the loop
  // still completes, and a worker issuing a nested parallel_for makes
  // progress instead of deadlocking on its own pool. Driver futures are
  // deliberately not awaited — a driver that starts after every slot is
  // claimed no-ops, and awaiting it from a pool thread would deadlock a
  // nested call; the shared state keeps itself alive for stragglers.
  const std::size_t drivers = std::min<std::size_t>(size(), n);
  for (std::size_t i = 0; i < drivers; ++i) {
    submit([state] { state->drive(); });
  }
  state->drive();
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock, [&] { return state->done == state->n; });
  }
  // Move the exception out before rethrowing: a straggler driver may drop
  // the last ForState reference on a worker, and it must not free the
  // exception the caller is handling.
  for (std::exception_ptr& error : state->errors) {
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }
}

}  // namespace owl::support
