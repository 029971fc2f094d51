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

Budget::Budget(double deadline_seconds, ClockFn clock)
    : deadline_seconds_(deadline_seconds), clock_(std::move(clock)) {
  if (!clock_) clock_ = monotonic_seconds;
  start_seconds_ = clock_();
}

double Budget::elapsed_seconds() const { return clock_() - start_seconds_; }

bool Budget::exhausted() const {
  return deadline_seconds_ > 0 && elapsed_seconds() >= deadline_seconds_;
}

}  // namespace owl::support
