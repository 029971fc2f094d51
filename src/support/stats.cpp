#include "support/stats.hpp"

#include <algorithm>
#include <cassert>

namespace owl {

void SampleStats::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
  sum_ += sample;
  sum_sq_ += sample * sample;
}

void SampleStats::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleStats::min() const noexcept {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  ensure_sorted();
  return samples_.front();
}

double SampleStats::max() const noexcept {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  ensure_sorted();
  return samples_.back();
}

double SampleStats::mean() const noexcept {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sum_ / static_cast<double>(samples_.size());
}

double SampleStats::stddev() const noexcept {
  const std::size_t n = samples_.size();
  if (n < 2) return 0.0;
  const double m = mean();
  const double var =
      (sum_sq_ - static_cast<double>(n) * m * m) / static_cast<double>(n - 1);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double SampleStats::percentile(double p) const {
  assert(p >= 0.0 && p <= 100.0);
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace owl
