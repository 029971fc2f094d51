// The owl_serve wire protocol: newline-delimited JSON over a Unix-domain
// socket (DESIGN.md §10).
//
// One request per line, one response line per request. Responses echo the
// request's `id`; when requests overlap (several analyzes pipelined on one
// connection) responses may arrive out of order — immediate answers (pings,
// rejections) overtake queued analyses — so clients correlate by id. Ops:
//
//   {"op":"analyze", "id":"r1", "client":"ci",
//    "module_path":"examples/ir/toctou.mir",      // or "module_text":"..."
//    "name":"toctou",                              // display name for
//                                                  // module_text (defaults
//                                                  // to "<inline>")
//    "options":{...}}                              // see AnalysisOptions
//   {"op":"ping"}
//   {"op":"stats"}        // server counters (admission, cache, journal)
//   {"op":"shutdown"}     // graceful drain, same as SIGTERM
//
// `op` defaults to "analyze" so the minimal request is just a module.
// Responses:
//
//   {"id":...,"status":"ok","cache":"hit"|"miss"|"off","exit":0,
//    "degraded":false,"manifest_sha":"...","output":"<owl_cli stdout>",
//    "error":""}
//   {"id":...,"status":"rejected","reason":"queue_full"|
//    "client_inflight_exceeded"|"shutting_down","retry_after_ms":100}
//   {"id":...,"status":"error","reason":"..."}    // malformed request,
//                                                  // unreadable module,
//                                                  // injected service fault
//
// The `output` field of an "ok"/"error" analyze response carries exactly
// the bytes one-shot `owl_cli` would print to stdout for the same module
// and options, and `exit` its exit status — the differential gate
// (scripts/serve_check.py) compares both. `options` is strict: unknown
// keys are an error, because a silently ignored option would produce a
// response that is byte-identical to the *wrong* owl_cli invocation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyze.hpp"
#include "serve/json.hpp"
#include "support/status.hpp"

namespace owl::serve {

/// Per-request analysis options: the owl_cli request model
/// (core/analyze.hpp). An empty options object means "what owl_cli does
/// with no flags" (with one worker).
using AnalysisOptions = core::AnalysisRequest;

/// One parsed request line.
struct Request {
  enum class Op { kAnalyze, kPing, kStats, kShutdown };
  Op op = Op::kAnalyze;
  std::string id;           ///< echoed verbatim in the response ("" ok)
  std::string client;       ///< admission-control identity ("" = per-conn)
  std::string module_path;  ///< exactly one of module_path/module_text
  std::string module_text;
  std::string name;         ///< display name for module_text
  AnalysisOptions options;

  /// Display name as owl_cli would print it: the path, or name/"<inline>".
  const std::string& display_name() const noexcept {
    static const std::string kInline = "<inline>";
    if (!module_path.empty()) return module_path;
    return name.empty() ? kInline : name;
  }
};

/// Parses one request line. On failure the returned status describes the
/// problem (the server answers with a structured "error" response).
Status parse_request(std::string_view line, Request& out);

/// Serializes an analyze request in resolved form — module text inline,
/// display name pinned, every option explicit — as one line WITHOUT the
/// trailing '\n'. This is the journal's A-record payload: the round trip
/// parse_request(serialize_request(r)) reproduces the module bytes, the
/// display name, and every option, so a post-crash replay recomputes the
/// same cache key and byte-identical output with no filesystem dependency.
std::string serialize_request(const Request& request);

// --- response builders (all return one line, '\n' included) ---

/// Completed analysis (exit 0/2/3): cache is "hit", "miss", or "off".
std::string ok_response(const std::string& id, std::string_view cache,
                        int exit_code, bool degraded,
                        const std::string& manifest_sha,
                        const std::string& output, const std::string& error);

/// Load-shed / drain rejection with the client's structured retry hint.
std::string rejected_response(const std::string& id, std::string_view reason,
                              unsigned retry_after_ms);

/// Malformed request or service-layer failure.
std::string error_response(const std::string& id, const std::string& reason);

std::string ping_response();

}  // namespace owl::serve
