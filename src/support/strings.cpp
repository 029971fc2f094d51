#include "support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <limits>

namespace owl {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string exact_double(double value) {
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  return std::string(buffer, end);
}

bool parse_int64(std::string_view text, std::int64_t& out) noexcept {
  text = trim(text);
  if (text.empty()) return false;
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-') {
    negative = true;
    i = 1;
    if (text.size() == 1) return false;
  }
  // Accumulate in unsigned space to detect overflow cleanly.
  std::uint64_t acc = 0;
  const std::uint64_t limit =
      negative ? static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max()) +
                     1
               : static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max());
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (acc > (limit - digit) / 10) return false;
    acc = acc * 10 + digit;
  }
  // Negate in unsigned space: -INT64_MIN is not representable, but its
  // two's-complement bit pattern is, and the C++20 cast is well-defined.
  out = negative ? static_cast<std::int64_t>(~acc + 1)
                 : static_cast<std::int64_t>(acc);
  return true;
}

std::string with_commas(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

bool is_identifier(std::string_view name) noexcept {
  if (name.empty()) return false;
  const auto head_ok = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '$';
  };
  const auto tail_ok = [&](char c) {
    return head_ok(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head_ok(name[0])) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!tail_ok(name[i])) return false;
  }
  return true;
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_format("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace owl
