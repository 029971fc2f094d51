// Deadline / Budget — the bounded-work primitive of the resilience layer.
//
// Every stage of the pipeline runs under a Budget holding the stage's
// wall-clock deadline; between units of work the stage asks `exhausted()`
// and degrades gracefully instead of running unbounded. The budget also
// tallies the interpreter steps the stage charged, which FailureRecords
// report. Budgets are cheap value types; an unlimited budget costs one
// clock read at construction.
#pragma once

#include <cstdint>
#include <functional>

namespace owl::support {

/// A live budget: tracks wall-clock from construction and steps as charged.
class Budget {
 public:
  /// Seconds-source for tests (defaults to a monotonic clock).
  using ClockFn = std::function<double()>;

  /// `deadline_seconds` <= 0 means no deadline.
  explicit Budget(double deadline_seconds = 0.0, ClockFn clock = nullptr);

  /// Records interpreter steps spent (e.g. RunResult::steps of one run).
  void charge_steps(std::uint64_t steps) noexcept { steps_spent_ += steps; }

  std::uint64_t steps_spent() const noexcept { return steps_spent_; }
  double elapsed_seconds() const;

  /// The wall-clock deadline has passed.
  bool exhausted() const;

 private:
  double deadline_seconds_;
  ClockFn clock_;
  double start_seconds_ = 0.0;
  std::uint64_t steps_spent_ = 0;
};

}  // namespace owl::support
