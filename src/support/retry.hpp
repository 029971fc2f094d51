// Bounded retries with seed rotation and exponential budget growth.
//
// The schedule-dependent stages — detection re-runs, racing-moment capture,
// vulnerability verification — can fail on a flaky schedule without the
// target being unanalyzable. A RetryPolicy makes such a failure cost one
// retry under a fresh seed (a different region of the schedule space) and
// a grown budget, rather than a lost attack.
#pragma once

#include <cstdint>

#include "support/deadline.hpp"

namespace owl::support {

struct RetryPolicy {
  /// Retries after the first attempt; 0 disables retrying.
  unsigned max_retries = 2;
  /// Seed rotation per retry. A large odd stride lands each retry in an
  /// unrelated region of the schedule space.
  static constexpr std::uint64_t kSeedStride = 0x9e3779b9ULL;
  /// Budget multiplier per retry (exponential growth).
  static constexpr double kBudgetGrowth = 2.0;

  unsigned max_attempts() const noexcept { return max_retries + 1; }

  /// Seed for the given 0-based attempt.
  std::uint64_t seed_for(std::uint64_t base_seed,
                         unsigned attempt) const noexcept {
    return base_seed + kSeedStride * attempt;
  }

  /// Budget for the given 0-based attempt: base grown kBudgetGrowth^attempt.
  BudgetSpec budget_for(const BudgetSpec& base,
                        unsigned attempt) const noexcept {
    BudgetSpec out = base;
    for (unsigned i = 0; i < attempt; ++i) out = out.grown(kBudgetGrowth);
    return out;
  }
};

}  // namespace owl::support
