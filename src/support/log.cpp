#include "support/log.hpp"

#include <cstdio>
#include <mutex>
#include <utility>

namespace owl {
namespace {

std::mutex g_log_mutex;
LogSink g_sink;  // guarded by g_log_mutex; empty = stderr

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}

}  // namespace

LogSink set_log_sink(LogSink sink) {
  const std::lock_guard<std::mutex> lock(g_log_mutex);
  LogSink previous = std::move(g_sink);
  g_sink = std::move(sink);
  return previous;
}

void log_line(LogLevel level, const std::string& message) {
  const std::lock_guard<std::mutex> lock(g_log_mutex);
  if (g_sink) {
    g_sink(level, message);
    return;
  }
  std::fprintf(stderr, "[owl %s] %s\n", level_tag(level), message.c_str());
}

}  // namespace owl
