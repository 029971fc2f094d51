#include "serve/protocol.hpp"

#include <type_traits>

#include "support/strings.hpp"

namespace owl::serve {
namespace {

// --- "options" members: one reader per request field type ---

bool read_option(const JsonValue& value, std::string& out, core::IntRange) {
  if (!value.is_string() || value.as_string().empty()) return false;
  out = value.as_string();
  return true;
}

bool read_option(const JsonValue& value, std::vector<std::int64_t>& out,
                 core::IntRange) {
  if (!value.is_array()) return false;
  out.clear();
  for (const JsonValue& item : value.as_array()) {
    if (!item.is_int()) return false;
    out.push_back(item.as_int());
  }
  return true;
}

bool read_option(const JsonValue& value, bool& out, core::IntRange) {
  if (!value.is_bool()) return false;
  out = value.as_bool();
  return true;
}

bool read_option(const JsonValue& value, double& out, core::IntRange) {
  if (!value.is_number() || value.as_double() < 0) return false;
  out = value.as_double();
  return true;
}

template <typename Int>
  requires std::is_integral_v<Int>
bool read_option(const JsonValue& value, Int& out, core::IntRange range) {
  return value.is_int() && range.assign(out, value.as_int());
}

template <typename Enum>
  requires std::is_enum_v<Enum>
bool read_option(const JsonValue& value, Enum& out, core::IntRange) {
  return value.is_string() && core::parse_field(value.as_string(), out);
}

bool read_option(const JsonValue& value, checkers::CheckerOptions& out,
                 core::IntRange) {
  std::string error;
  return value.is_string() &&
         checkers::CheckerOptions::parse(value.as_string(), out, error);
}

Status parse_options(const JsonValue& value, AnalysisOptions& out) {
  if (!value.is_object()) {
    return invalid_argument_error("options must be an object");
  }
  for (const auto& [key, field] : value.as_object()) {
    bool known = false;
    bool ok = false;
    AnalysisOptions::for_each_field(
        out, [&](std::string_view name, auto& member,
                 core::IntRange range = {}) {
          if (name != key) return;
          known = true;
          ok = read_option(field, member, range);
        });
    // Strict: an ignored option would silently answer for the wrong
    // owl_cli invocation.
    if (!known) {
      return invalid_argument_error("unknown option \"" + key + "\"");
    }
    if (!ok) {
      return invalid_argument_error("bad value for option \"" + key + "\"");
    }
  }
  return Status::ok();
}

}  // namespace

Status parse_request(std::string_view line, Request& out) {
  JsonValue root;
  std::string error;
  if (!JsonValue::parse(line, root, error)) {
    return parse_error("request is not valid JSON: " + error);
  }
  if (!root.is_object()) {
    return invalid_argument_error("request must be a JSON object");
  }
  out = Request();
  const JsonValue* options_value = nullptr;
  for (const auto& [key, field] : root.as_object()) {
    if (key == "op") {
      if (!field.is_string()) {
        return invalid_argument_error("\"op\" must be a string");
      }
      const std::string& op = field.as_string();
      if (op == "analyze") {
        out.op = Request::Op::kAnalyze;
      } else if (op == "ping") {
        out.op = Request::Op::kPing;
      } else if (op == "stats") {
        out.op = Request::Op::kStats;
      } else if (op == "shutdown") {
        out.op = Request::Op::kShutdown;
      } else {
        return invalid_argument_error("unknown op \"" + op + "\"");
      }
    } else if (key == "id") {
      if (!field.is_string()) {
        return invalid_argument_error("\"id\" must be a string");
      }
      out.id = field.as_string();
    } else if (key == "client") {
      if (!field.is_string()) {
        return invalid_argument_error("\"client\" must be a string");
      }
      out.client = field.as_string();
    } else if (key == "module_path") {
      if (!field.is_string() || field.as_string().empty()) {
        return invalid_argument_error("\"module_path\" must be a non-empty string");
      }
      out.module_path = field.as_string();
    } else if (key == "module_text") {
      if (!field.is_string()) {
        return invalid_argument_error("\"module_text\" must be a string");
      }
      out.module_text = field.as_string();
    } else if (key == "name") {
      if (!field.is_string()) {
        return invalid_argument_error("\"name\" must be a string");
      }
      out.name = field.as_string();
    } else if (key == "options") {
      options_value = &field;
    } else {
      return invalid_argument_error("unknown request field \"" + key + "\"");
    }
  }
  if (options_value != nullptr) {
    if (Status status = parse_options(*options_value, out.options);
        !status.is_ok()) {
      return status;
    }
  }
  if (out.op == Request::Op::kAnalyze) {
    const bool has_path = !out.module_path.empty();
    const bool has_text = root.find("module_text") != nullptr;
    if (has_path == has_text) {
      return invalid_argument_error(
          "analyze requires exactly one of \"module_path\" or "
          "\"module_text\"");
    }
  }
  return Status::ok();
}

std::string serialize_request(const Request& request) {
  std::string out = "{\"op\":\"analyze\"";
  out += ",\"id\":" + json_quote(request.id);
  out += ",\"client\":" + json_quote(request.client);
  out += ",\"module_text\":" + json_quote(request.module_text);
  out += ",\"name\":" + json_quote(request.display_name());
  out += ",\"options\":" + request.options.to_json();
  return out + "}";
}

std::string ok_response(const std::string& id, std::string_view cache,
                        int exit_code, bool degraded,
                        const std::string& manifest_sha,
                        const std::string& output, const std::string& error) {
  std::string out = "{\"id\":" + json_quote(id);
  out += ",\"status\":\"ok\"";
  out += ",\"cache\":" + json_quote(cache);
  out += str_format(",\"exit\":%d", exit_code);
  out += ",\"degraded\":";
  out += degraded ? "true" : "false";
  out += ",\"manifest_sha\":" + json_quote(manifest_sha);
  out += ",\"output\":" + json_quote(output);
  out += ",\"error\":" + json_quote(error);
  out += "}\n";
  return out;
}

std::string rejected_response(const std::string& id, std::string_view reason,
                              unsigned retry_after_ms) {
  std::string out = "{\"id\":" + json_quote(id);
  out += ",\"status\":\"rejected\"";
  out += ",\"reason\":" + json_quote(reason);
  out += str_format(",\"retry_after_ms\":%u", retry_after_ms);
  out += "}\n";
  return out;
}

std::string error_response(const std::string& id, const std::string& reason) {
  std::string out = "{\"id\":" + json_quote(id);
  out += ",\"status\":\"error\"";
  out += ",\"reason\":" + json_quote(reason);
  out += "}\n";
  return out;
}

std::string ping_response() {
  return "{\"status\":\"ok\",\"pong\":true}\n";
}

}  // namespace owl::serve
