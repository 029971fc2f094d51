// Vector clocks for happens-before race detection.
//
// The TSan substrate (DESIGN.md §2) uses full vector clocks rather than
// FastTrack epochs: simulated executions are small enough that precision is
// worth more than the constant-factor speedup. Shadow cells record only the
// accessing thread's own clock entry, which `epoch_leq` compares against a
// full clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace owl::race {

using ThreadId = std::uint32_t;

class VectorClock {
 public:
  VectorClock() = default;

  /// Component for `tid` (0 if never touched).
  std::uint64_t get(ThreadId tid) const noexcept {
    return tid < clocks_.size() ? clocks_[tid] : 0;
  }

  void set(ThreadId tid, std::uint64_t value) {
    ensure(tid);
    clocks_[tid] = value;
  }

  /// Advances this thread's own component.
  void increment(ThreadId tid) {
    ensure(tid);
    ++clocks_[tid];
  }

  /// Pointwise maximum (join).
  void join(const VectorClock& other);

  /// True iff this clock happens-before-or-equals `other` (pointwise <=).
  bool leq(const VectorClock& other) const noexcept;

  /// True iff the event stamped (tid, epoch) happens-before `other`,
  /// i.e. other has seen at least `epoch` of `tid`.
  static bool epoch_leq(ThreadId tid, std::uint64_t epoch,
                        const VectorClock& other) noexcept {
    return epoch <= other.get(tid);
  }

  std::size_t size() const noexcept { return clocks_.size(); }

  /// Pre-reserves capacity for `threads` components without changing the
  /// observable size (detectors that know the thread count call this once
  /// so interleaved ensure() calls never reallocate).
  void reserve(std::size_t threads) { clocks_.reserve(threads); }
  std::size_t capacity() const noexcept { return clocks_.capacity(); }

  std::string to_string() const;

 private:
  void ensure(ThreadId tid) {
    if (tid >= clocks_.size()) grow_to(tid + 1);
  }

  /// Grows to exactly `count` components, but reserves geometrically so
  /// interleaved ensure(t0), ensure(t1), ... over increasing tids costs
  /// O(n) amortized instead of one reallocation (and full copy) per tid.
  void grow_to(std::size_t count);

  std::vector<std::uint64_t> clocks_;
};

}  // namespace owl::race
