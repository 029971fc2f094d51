// Summary statistics for bench measurements (trigger-effort sweeps,
// repetitions to a known attack).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace owl {

/// Accumulates samples and reports percentiles.
class SampleStats {
 public:
  void add(double sample);

  std::size_t count() const noexcept { return samples_.size(); }

  /// p in [0,100]; linearly interpolated between the two closest ranks of
  /// the sorted samples (p=50 of an even count is the mean of the middle
  /// pair).
  double percentile(double p) const;

  /// Median, i.e. percentile(50).
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;

  void ensure_sorted() const;
};

}  // namespace owl
