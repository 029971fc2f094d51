// Small string utilities shared across OWL (IR printer/parser, reports).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace owl {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text) noexcept;

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Shortest decimal text that parses back to exactly `value` ("0",
/// "0.25", "1e-07"): unlike a fixed-precision format it never folds two
/// distinct values into one spelling.
std::string exact_double(double value);

/// Parses a signed 64-bit integer (decimal, optional leading '-').
/// Returns false on malformed input or overflow.
bool parse_int64(std::string_view text, std::int64_t& out) noexcept;

/// Renders `value` with thousands separators ("24,641") for tables.
std::string with_commas(std::uint64_t value);

/// True if `name` is a valid IR identifier: [A-Za-z_.$][A-Za-z0-9_.$]*.
bool is_identifier(std::string_view name) noexcept;

/// Renders `text` as a double-quoted JSON string literal (escapes quotes,
/// backslashes, and control characters).
std::string json_quote(std::string_view text);

}  // namespace owl
