// Lightweight span tracing for the Fig. 3 pipeline (DESIGN.md §8).
//
// A TRACE_SPAN(stage, detail) is an RAII span: it opens when constructed and
// records one event — name, detail, owning thread, monotonic start, duration,
// nesting depth — when it closes. Spans nest naturally (a child closes before
// its parent by scope), so a drained trace reconstructs the stage tree.
//
// Recording is per-thread: each thread appends into its own buffer (one
// uncontended mutex per buffer, taken only at span close and at drain), so
// pipeline workers never serialize against each other on a global lock.
// Buffers are owned by the collector and survive thread exit, which lets a
// drain after a ThreadPool teardown still see every worker's spans.
//
// Tracing is off by default: a disabled collector reduces a span to one
// relaxed atomic load, so instrumentation can stay on in release builds.
// The drained trace serializes to Chrome trace_event JSON ("X" complete
// events), loadable in about:tracing or https://ui.perfetto.dev, and folds
// into owl_cli's --timings table (span_timings()): spans are the one clock
// behind both, so the two cannot disagree.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace owl::support {

/// One closed span, in collector-epoch-relative monotonic nanoseconds.
struct TraceEvent {
  std::string name;        ///< span name (pipeline stage, sub-step)
  std::string detail;      ///< free-form argument (target, report key)
  std::uint32_t tid = 0;   ///< stable per-thread index (registration order)
  std::uint32_t depth = 0; ///< nesting depth on its thread at open time
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// Process-wide trace sink. Use the singleton via instance(); tests may
/// construct their own collectors to stay isolated from the global one.
class TraceCollector {
 public:
  /// Per-thread event buffer. Owned by the collector; the owning thread
  /// appends under `mutex` (uncontended except during a drain). `depth` is
  /// touched only by the owning thread.
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
  };

  TraceCollector() : epoch_(std::chrono::steady_clock::now()) {
    static std::atomic<std::uint64_t> next_serial{1};
    serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
  }

  static TraceCollector& instance();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the collector's construction (span timestamps).
  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// The calling thread's buffer, registering it on first use.
  ThreadBuffer& local_buffer();

  /// Copies every recorded event, sorted by (tid, start, depth) — a
  /// deterministic order for a fixed set of events.
  std::vector<TraceEvent> snapshot() const;

  std::size_t event_count() const;

  /// Drops every recorded event (buffers stay registered).
  void clear();

  /// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds).
  std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;  ///< guards buffers_ registration + iteration
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  /// Process-unique id distinguishing collectors that reuse an address
  /// (thread-local caches key on it; see local_buffer()).
  std::uint64_t serial_ = 0;
};

/// Every closed span of one name, aggregated: one --timings row.
struct SpanTiming {
  std::string name;
  std::size_t count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Aggregates `events` (a snapshot()) per span name, one row per name in
/// order of the name's first start — the --timings view of the trace.
std::vector<SpanTiming> span_timings(std::vector<TraceEvent> events);

/// RAII span against a collector (the global one by default). A span on a
/// disabled collector records nothing and costs one atomic load.
class TraceSpan {
 public:
  TraceSpan(std::string_view name, std::string_view detail,
            TraceCollector& collector = TraceCollector::instance());
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceCollector* collector_ = nullptr;  ///< null when disabled at open
  TraceCollector::ThreadBuffer* buffer_ = nullptr;
  std::string name_;
  std::string detail_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace owl::support

#define OWL_TRACE_CONCAT_INNER(a, b) a##b
#define OWL_TRACE_CONCAT(a, b) OWL_TRACE_CONCAT_INNER(a, b)
/// Opens an RAII span on the global collector for the enclosing scope.
#define TRACE_SPAN(stage, detail) \
  ::owl::support::TraceSpan OWL_TRACE_CONCAT(owl_trace_span_, \
                                             __LINE__)(stage, detail)
