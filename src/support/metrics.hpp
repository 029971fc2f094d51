// Process-wide metrics registry for the pipeline (DESIGN.md §8).
//
// Named counters and histograms record *behavioral* facts — retries,
// livelock releases, reports emitted and pruned per stage.
// serialize() renders only those, sorted by name, so two runs with
// identical behavior produce byte-identical snapshots no matter how long
// they took or how many workers they ran on; CI diffs the snapshots
// directly. Durations are not metrics: the trace spans (support/trace.hpp)
// are the one clock, and --timings reads them.
//
// Values are atomics: hot paths keep local (non-atomic) tallies and flush
// once per run, so concurrent flushes from parallel pipeline workers sum to
// the same totals in any interleaving.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace owl::support {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Power-of-two-bucketed distribution of unsigned integer samples. Bucket k
/// holds samples whose bit width is k (0 lands in bucket 0, 1 in bucket 1,
/// 2–3 in bucket 2, 4–7 in bucket 3, ...): integer-exact, so the rendered
/// histogram is deterministic for a fixed sample multiset.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t sample) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    buckets_[bucket_of(sample)].fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  static std::size_t bucket_of(std::uint64_t sample) noexcept {
    std::size_t width = 0;
    while (sample != 0) {
      ++width;
      sample >>= 1;
    }
    return width;
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Name → metric registry. Accessors register on first use and return
/// references that stay valid until reset(). Until then a name is bound to
/// one kind; re-requesting it with a different kind throws
/// std::logic_error (programmer error).
///
/// The third kind, *advisory* counters, are integer event counts that are
/// deterministic for a fixed configuration but vary legitimately across
/// configurations that must stay report-equivalent (--prescreen mode, jobs
/// value). They are excluded from serialize()/json() so CI can byte-diff the
/// behavioral snapshot across those configurations; advisory_json() renders
/// them into the manifest's environment section.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Advisory counter: deterministic per configuration but excluded from
  /// the behavioral snapshot (see the class comment). Distinct namespace
  /// from counter(): a name is one kind until reset().
  Counter& advisory(std::string_view name);

  /// Deterministic behavioral snapshot: one line per counter/histogram,
  /// sorted by name; advisory counters excluded.
  std::string serialize() const;

  /// Behavioral snapshot as a JSON object (same exclusions as serialize()).
  std::string json() const;

  /// Advisory counters as a JSON object (manifest environment section).
  std::string advisory_json() const;

  /// Drops every registration, so the registry is as a fresh process sees
  /// it: a reset-run-serialize sequence renders only the names that run
  /// registered. References returned earlier dangle after this.
  void reset();

 private:
  enum class Kind { kCounter, kHistogram, kAdvisory };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Shorthand for MetricsRegistry::global() in instrumentation sites.
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace owl::support
