// Minimal logger for warnings and errors, such as a degraded pipeline
// stage. Every line is emitted; tests capture them through a sink.
//
// The sink is thread-safe: parallel pipeline workers (Pipeline::run_many,
// the verifier's schedule sharding) log concurrently, and every line must
// reach the sink whole — one fully formatted line per call, serialized by
// the logger's mutex, never interleaved mid-line.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace owl {

enum class LogLevel { kWarn, kError };

/// Emits one line to the active sink (default: stderr). Safe to call from
/// any thread; each call delivers one intact line.
void log_line(LogLevel level, const std::string& message);

/// Receives fully formatted lines instead of stderr. Called under the
/// logger's mutex — lines arrive whole, one at a time, from any thread —
/// so a capturing sink needs no locking of its own (and must not log).
using LogSink = std::function<void(LogLevel, const std::string&)>;

/// Installs `sink` (tests capture concurrent lines this way); an empty
/// sink restores stderr. Returns the previously installed sink.
LogSink set_log_sink(LogSink sink);

namespace detail {
/// Stream-style log statement builder; emits on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage() { log_line(level_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

#define OWL_LOG(level) ::owl::detail::LogMessage(::owl::LogLevel::level)

}  // namespace owl
