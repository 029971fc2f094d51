#include "support/deadline.hpp"

#include <chrono>

namespace owl::support {
namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BudgetSpec BudgetSpec::grown(double factor) const noexcept {
  BudgetSpec out = *this;
  if (factor <= 1.0) return out;
  if (out.wall_seconds > 0) out.wall_seconds *= factor;
  if (out.steps > 0) {
    const double grown_steps = static_cast<double>(out.steps) * factor;
    out.steps = grown_steps >= 1.8e19 ? UINT64_MAX
                                      : static_cast<std::uint64_t>(grown_steps);
  }
  return out;
}

Budget::Budget(BudgetSpec spec, ClockFn clock)
    : spec_(spec), clock_(std::move(clock)) {
  if (!clock_) clock_ = monotonic_seconds;
  start_seconds_ = clock_();
}

double Budget::elapsed_seconds() const { return clock_() - start_seconds_; }

std::optional<FailureCause> Budget::exhausted_by() const {
  if (spec_.wall_seconds > 0 && elapsed_seconds() >= spec_.wall_seconds) {
    return FailureCause::kWallClockExhausted;
  }
  if (spec_.steps != 0 && steps_spent_ >= spec_.steps) {
    return FailureCause::kStepBudgetExhausted;
  }
  return std::nullopt;
}

}  // namespace owl::support
