// Deadline / Budget — the bounded-work primitive of the resilience layer.
//
// Every stage of the pipeline runs under a Budget combining a wall-clock
// deadline with an interpreter-step allowance, replacing the single
// hard-coded Machine::max_steps cliff. A stage charges the steps each
// machine run consumed; between units of work it asks `exhausted()` and
// degrades gracefully instead of running unbounded. Budgets are cheap
// value types; an unlimited budget costs one clock read at construction.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "support/failure.hpp"

namespace owl::support {

/// Declarative stage allowance. Zero means "unlimited" on either axis.
struct BudgetSpec {
  double wall_seconds = 0.0;  ///< 0 = no wall-clock deadline
  std::uint64_t steps = 0;    ///< 0 = no interpreter-step limit

  bool unlimited() const noexcept { return wall_seconds <= 0 && steps == 0; }

  /// Exponential growth for retry escalation (each retry gets `factor`
  /// times the previous allowance; unlimited axes stay unlimited).
  BudgetSpec grown(double factor) const noexcept;
};

/// A live budget: tracks wall-clock from construction and steps as charged.
class Budget {
 public:
  /// Seconds-source for tests (defaults to a monotonic clock).
  using ClockFn = std::function<double()>;

  /// Unlimited budget.
  Budget() : Budget(BudgetSpec{}) {}
  explicit Budget(BudgetSpec spec, ClockFn clock = nullptr);

  const BudgetSpec& spec() const noexcept { return spec_; }

  /// Records interpreter steps spent (e.g. RunResult::steps of one run).
  void charge_steps(std::uint64_t steps) noexcept { steps_spent_ += steps; }

  std::uint64_t steps_spent() const noexcept { return steps_spent_; }
  double elapsed_seconds() const;

  bool exhausted() const { return exhausted_by().has_value(); }

  /// Which axis ran out first, if any. Wall clock is checked before steps
  /// so a stalled (zero-step) stage still trips its deadline.
  std::optional<FailureCause> exhausted_by() const;

 private:
  BudgetSpec spec_;
  ClockFn clock_;
  double start_seconds_ = 0.0;
  std::uint64_t steps_spent_ = 0;
};

}  // namespace owl::support
