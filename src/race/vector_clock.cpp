#include "race/vector_clock.hpp"

#include <algorithm>

namespace owl::race {

void VectorClock::grow_to(std::size_t count) {
  if (count > clocks_.capacity()) {
    std::size_t cap = clocks_.capacity() < 4 ? 4 : clocks_.capacity() * 2;
    while (cap < count) cap *= 2;
    clocks_.reserve(cap);
  }
  clocks_.resize(count, 0);
}

void VectorClock::join(const VectorClock& other) {
  const std::size_t n = other.clocks_.size();
  if (n == 0) return;  // joining an untouched clock is a no-op
  if (n > clocks_.size()) grow_to(n);
  // Raw-pointer loop over the common prefix: clocks are a handful of words
  // in practice, so avoiding per-element bounds logic is the whole cost.
  std::uint64_t* dst = clocks_.data();
  const std::uint64_t* src = other.clocks_.data();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

bool VectorClock::leq(const VectorClock& other) const noexcept {
  const std::size_t common = std::min(clocks_.size(), other.clocks_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (clocks_[i] > other.clocks_[i]) return false;
  }
  // Components past `other`'s length compare against an implicit 0.
  for (std::size_t i = common; i < clocks_.size(); ++i) {
    if (clocks_[i] > 0) return false;
  }
  return true;
}

std::string VectorClock::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < clocks_.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(clocks_[i]);
  }
  out += "]";
  return out;
}

}  // namespace owl::race
