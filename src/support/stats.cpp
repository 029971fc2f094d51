#include "support/stats.hpp"

#include <algorithm>
#include <cassert>

namespace owl {

void SampleStats::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void SampleStats::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
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
