// Thread schedulers for the simulated machine.
//
// The schedule space is where concurrency bugs hide: the paper's Finding III
// shows attacks manifest within tens of runs once inputs (and IO timings)
// are crafted. All schedulers here are deterministic functions of their
// seed, so a rerun with the same seed reproduces every manifestation.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "interp/thread.hpp"
#include "support/rng.hpp"

namespace owl::interp {

/// Strategy interface: choose which runnable thread executes next.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// `runnable` is non-empty and sorted by thread id; `step` is the global
  /// instruction count so far.
  virtual ThreadId pick(const std::vector<ThreadId>& runnable,
                        std::uint64_t step) = 0;

  /// Called when a new thread becomes schedulable.
  virtual void on_thread_created(ThreadId tid) { (void)tid; }
};

/// Cooperative round-robin — the "benign" baseline schedule. Many adhoc
/// synchronizations never misbehave under it, which is exactly why race
/// detectors driven by it miss vulnerable interleavings.
class RoundRobinScheduler final : public Scheduler {
 public:
  ThreadId pick(const std::vector<ThreadId>& runnable,
                std::uint64_t step) override;

 private:
  ThreadId last_ = 0;
};

/// Uniformly random preemption at every step.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}

  ThreadId pick(const std::vector<ThreadId>& runnable,
                std::uint64_t step) override;

 private:
  Rng rng_;
};

/// PCT (probabilistic concurrency testing): random per-thread priorities
/// plus `depth` random priority-change points. Finds depth-d bugs with
/// probability >= 1/(n * k^(d-1)); this is the exploration strategy our
/// SKI-mode kernel detector sweeps seeds over.
class PctScheduler final : public Scheduler {
 public:
  PctScheduler(std::uint64_t seed, unsigned depth,
               std::uint64_t expected_steps);

  ThreadId pick(const std::vector<ThreadId>& runnable,
                std::uint64_t step) override;
  void on_thread_created(ThreadId tid) override;

 private:
  Rng rng_;
  std::unordered_map<ThreadId, std::uint64_t> priority_;
  std::vector<std::uint64_t> change_points_;  ///< sorted step indices
  std::size_t next_change_ = 0;
};

/// Strict priority: always run the runnable thread the priority list ranks
/// first. The vulnerability verifier uses this to serialize "attacker
/// thread first, victim thread second" orders.
class PriorityScheduler final : public Scheduler {
 public:
  explicit PriorityScheduler(std::vector<ThreadId> order)
      : order_(std::move(order)) {}

  ThreadId pick(const std::vector<ThreadId>& runnable,
                std::uint64_t step) override;

 private:
  std::vector<ThreadId> order_;
};

}  // namespace owl::interp
