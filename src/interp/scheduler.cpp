#include "interp/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace owl::interp {

ThreadId RoundRobinScheduler::pick(const std::vector<ThreadId>& runnable,
                                   std::uint64_t /*step*/) {
  assert(!runnable.empty());
  // First runnable id strictly greater than the last-run one, else wrap.
  for (ThreadId tid : runnable) {
    if (tid > last_) {
      last_ = tid;
      return tid;
    }
  }
  last_ = runnable.front();
  return last_;
}

ThreadId RandomScheduler::pick(const std::vector<ThreadId>& runnable,
                               std::uint64_t /*step*/) {
  assert(!runnable.empty());
  return runnable[rng_.next_below(runnable.size())];
}

PctScheduler::PctScheduler(std::uint64_t seed, unsigned depth,
                           std::uint64_t expected_steps)
    : rng_(seed) {
  // depth-1 priority change points, uniformly placed.
  for (unsigned i = 1; i < depth; ++i) {
    change_points_.push_back(rng_.next_below(std::max<std::uint64_t>(
        expected_steps, 1)));
  }
  std::sort(change_points_.begin(), change_points_.end());
}

void PctScheduler::on_thread_created(ThreadId tid) {
  // High random base priorities; change points later assign the lowest
  // outstanding priorities (classic PCT construction).
  priority_[tid] = 1000 + rng_.next_below(1000000);
}

ThreadId PctScheduler::pick(const std::vector<ThreadId>& runnable,
                            std::uint64_t step) {
  assert(!runnable.empty());
  ThreadId best = runnable.front();
  std::uint64_t best_prio = 0;
  for (ThreadId tid : runnable) {
    auto it = priority_.find(tid);
    const std::uint64_t prio = it != priority_.end() ? it->second : 1;
    if (prio >= best_prio) {
      best_prio = prio;
      best = tid;
    }
  }
  if (next_change_ < change_points_.size() &&
      step >= change_points_[next_change_]) {
    // Demote the thread that was about to run below everyone else.
    priority_[best] = change_points_.size() - next_change_;
    ++next_change_;
  }
  return best;
}

ThreadId PriorityScheduler::pick(const std::vector<ThreadId>& runnable,
                                 std::uint64_t /*step*/) {
  assert(!runnable.empty());
  for (ThreadId want : order_) {
    if (std::find(runnable.begin(), runnable.end(), want) != runnable.end()) {
      return want;
    }
  }
  return runnable.front();
}

}  // namespace owl::interp
