#include "support/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "support/strings.hpp"

namespace owl::support {

TraceCollector& TraceCollector::instance() {
  static TraceCollector collector;
  return collector;
}

TraceCollector::ThreadBuffer& TraceCollector::local_buffer() {
  // One cached buffer pointer per (thread, collector) pair. The cache key
  // includes the collector's serial because an address alone is ambiguous:
  // a destroyed test-local collector's storage can be reused by the next
  // one, and a stale hit would hand back a freed buffer.
  struct CacheEntry {
    const TraceCollector* collector;
    std::uint64_t serial;
    ThreadBuffer* buffer;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& entry : cache) {
    if (entry.collector == this && entry.serial == serial_) {
      return *entry.buffer;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
  cache.push_back(CacheEntry{this, serial_, buffer});
  return *buffer;
}

std::vector<TraceEvent> TraceCollector::snapshot() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  return events;
}

std::size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    count += buffer->events.size();
  }
  return count;
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::string TraceCollector::chrome_trace_json() const {
  const std::vector<TraceEvent> events = snapshot();
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ",\n";
    first = false;
    out += str_format(
        "{\"name\":%s,\"cat\":\"owl\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"detail\":%s,\"depth\":%u}}",
        json_quote(event.name).c_str(), event.tid,
        static_cast<double>(event.start_ns) / 1000.0,
        static_cast<double>(event.duration_ns) / 1000.0,
        json_quote(event.detail).c_str(), event.depth);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceCollector::write_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string json = chrome_trace_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool ok = written == json.size() && std::fclose(file) == 0;
  if (!ok && written != json.size()) std::fclose(file);
  return ok;
}

std::vector<SpanTiming> span_timings(std::vector<TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  std::vector<SpanTiming> rows;
  for (const TraceEvent& event : events) {
    auto row = std::find_if(rows.begin(), rows.end(),
                            [&](const SpanTiming& r) {
                              return r.name == event.name;
                            });
    if (row == rows.end()) {
      row = rows.insert(rows.end(), SpanTiming{event.name});
    }
    const double seconds = static_cast<double>(event.duration_ns) / 1e9;
    ++row->count;
    row->total_seconds += seconds;
    row->max_seconds = std::max(row->max_seconds, seconds);
  }
  return rows;
}

TraceSpan::TraceSpan(std::string_view name, std::string_view detail,
                     TraceCollector& collector) {
  if (!collector.enabled()) return;
  collector_ = &collector;
  buffer_ = &collector.local_buffer();
  name_ = name;
  detail_ = detail;
  depth_ = buffer_->depth++;
  start_ns_ = collector.now_ns();
}

TraceSpan::~TraceSpan() {
  if (collector_ == nullptr) return;
  const std::uint64_t end_ns = collector_->now_ns();
  TraceEvent event;
  event.name = std::move(name_);
  event.detail = std::move(detail_);
  event.tid = buffer_->tid;
  event.depth = depth_;
  event.start_ns = start_ns_;
  event.duration_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  --buffer_->depth;
  std::lock_guard<std::mutex> lock(buffer_->mutex);
  buffer_->events.push_back(std::move(event));
}

}  // namespace owl::support
