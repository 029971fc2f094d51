// Bounded retries with seed rotation and a doubling deadline.
//
// The schedule-dependent stages — detection re-runs, racing-moment capture,
// vulnerability verification — can fail on a flaky schedule without the
// target being unanalyzable. A RetryPolicy makes such a failure cost one
// retry under a fresh seed (a different region of the schedule space) and,
// for detection, twice the previous attempt's deadline, rather than a lost
// attack.
#pragma once

#include <cmath>
#include <cstdint>

namespace owl::support {

struct RetryPolicy {
  /// Retries after the first attempt; 0 disables retrying.
  unsigned max_retries = 2;
  /// Seed rotation per retry. A large odd stride lands each retry in an
  /// unrelated region of the schedule space.
  static constexpr std::uint64_t kSeedStride = 0x9e3779b9ULL;

  unsigned max_attempts() const noexcept { return max_retries + 1; }

  /// Seed for the given 0-based attempt.
  std::uint64_t seed_for(std::uint64_t base_seed,
                         unsigned attempt) const noexcept {
    return base_seed + kSeedStride * attempt;
  }

  /// Deadline for the given 0-based attempt: `base` doubled per retry
  /// (0, no deadline, stays 0).
  static double deadline_for(double base, unsigned attempt) noexcept {
    return std::ldexp(base, static_cast<int>(attempt));
  }
};

}  // namespace owl::support
