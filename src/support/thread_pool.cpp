#include "support/thread_pool.hpp"

#include <exception>

namespace owl::support {

unsigned ThreadPool::default_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// One parallel_for call, on its caller's stack. Slots are claimed via the
/// `next` cursor; each slot's exception lands in its own pre-sized cell, so
/// no two threads ever touch the same cell.
struct ThreadPool::Loop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t next = 0;  ///< guarded by the pool's mutex_
  std::size_t done = 0;  ///< guarded by the pool's mutex_
  std::condition_variable finished;
  std::vector<std::exception_ptr> errors;
};

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_jobs();
  // The calling thread of each parallel_for is the N-th thread.
  workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
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
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || !open_.empty(); });
    if (open_.empty()) return;
    run_slot(*open_.front(), lock);
  }
}

void ThreadPool::run_slot(Loop& loop, std::unique_lock<std::mutex>& lock) {
  const std::size_t index = loop.next++;
  if (loop.next == loop.n) std::erase(open_, &loop);
  lock.unlock();
  try {
    (*loop.fn)(index);
  } catch (...) {
    loop.errors[index] = std::current_exception();
  }
  lock.lock();
  // Notified under the lock: the caller cannot see `done == n` and free
  // the loop before this thread lets go of the mutex.
  if (++loop.done == loop.n) loop.finished.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  Loop loop;
  loop.fn = &fn;
  loop.n = n;
  loop.errors.resize(n);
  std::unique_lock<std::mutex> lock(mutex_);
  open_.push_back(&loop);
  if (n > 1) wake_.notify_all();
  while (loop.next < loop.n) run_slot(loop, lock);
  loop.finished.wait(lock, [&loop] { return loop.done == loop.n; });
  lock.unlock();
  for (const std::exception_ptr& error : loop.errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace owl::support
