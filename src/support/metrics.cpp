#include "support/metrics.hpp"

#include <stdexcept>

#include "support/strings.hpp"

namespace owl::support {

void WallClock::add(double seconds) noexcept {
  if (seconds <= 0) return;
  nanos_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                   std::memory_order_relaxed);
}

double WallClock::seconds() const noexcept {
  return static_cast<double>(nanos_.load(std::memory_order_relaxed)) / 1e9;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry fresh;
    fresh.kind = kind;
    switch (kind) {
      case Kind::kCounter: fresh.counter = std::make_unique<Counter>(); break;
      case Kind::kHistogram:
        fresh.histogram = std::make_unique<Histogram>();
        break;
      case Kind::kWallClock: fresh.wall = std::make_unique<WallClock>(); break;
      case Kind::kAdvisory:
        fresh.counter = std::make_unique<Counter>();
        break;
    }
    it = entries_.emplace(std::string(name), std::move(fresh)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' re-registered with a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *entry(name, Kind::kCounter).counter;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *entry(name, Kind::kHistogram).histogram;
}

WallClock& MetricsRegistry::wall_clock(std::string_view name) {
  return *entry(name, Kind::kWallClock).wall;
}

Counter& MetricsRegistry::advisory(std::string_view name) {
  return *entry(name, Kind::kAdvisory).counter;
}

namespace {

std::string render_histogram(const Histogram& histogram) {
  std::string out = str_format(
      "count=%llu sum=%llu",
      static_cast<unsigned long long>(histogram.count()),
      static_cast<unsigned long long>(histogram.sum()));
  for (std::size_t k = 0; k < Histogram::kBuckets; ++k) {
    if (const std::uint64_t n = histogram.bucket(k); n != 0) {
      out += str_format(" b%zu:%llu", k, static_cast<unsigned long long>(n));
    }
  }
  return out;
}

std::string histogram_json(const Histogram& histogram) {
  std::string out = str_format(
      "{\"count\":%llu,\"sum\":%llu,\"buckets\":{",
      static_cast<unsigned long long>(histogram.count()),
      static_cast<unsigned long long>(histogram.sum()));
  bool first = true;
  for (std::size_t k = 0; k < Histogram::kBuckets; ++k) {
    if (const std::uint64_t n = histogram.bucket(k); n != 0) {
      if (!first) out += ',';
      first = false;
      out += str_format("\"b%zu\":%llu", k,
                        static_cast<unsigned long long>(n));
    }
  }
  out += "}}";
  return out;
}

}  // namespace

std::string MetricsRegistry::serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, entry] : entries_) {  // std::map: sorted by name
    switch (entry.kind) {
      case Kind::kCounter:
        out += str_format(
            "counter %s = %llu\n", name.c_str(),
            static_cast<unsigned long long>(entry.counter->value()));
        break;
      case Kind::kHistogram:
        out += str_format("histogram %s %s\n", name.c_str(),
                          render_histogram(*entry.histogram).c_str());
        break;
      case Kind::kWallClock:
      case Kind::kAdvisory:
        break;  // excluded from the behavioral snapshot
    }
  }
  return out;
}

std::string MetricsRegistry::json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    std::string value;
    switch (entry.kind) {
      case Kind::kCounter:
        value = str_format(
            "%llu", static_cast<unsigned long long>(entry.counter->value()));
        break;
      case Kind::kHistogram:
        value = histogram_json(*entry.histogram);
        break;
      case Kind::kWallClock:
      case Kind::kAdvisory:
        continue;  // excluded
    }
    if (!first) out += ',';
    first = false;
    out += json_quote(name) + ":" + value;
  }
  out += "}";
  return out;
}

std::string MetricsRegistry::wall_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (entry.kind != Kind::kWallClock) continue;
    if (!first) out += ',';
    first = false;
    out += json_quote(name) + ":" +
           str_format("%.6f", entry.wall->seconds());
  }
  out += "}";
  return out;
}

std::string MetricsRegistry::advisory_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (entry.kind != Kind::kAdvisory) continue;
    if (!first) out += ',';
    first = false;
    out += json_quote(name) + ":" +
           str_format("%llu",
                      static_cast<unsigned long long>(entry.counter->value()));
  }
  out += "}";
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace owl::support
