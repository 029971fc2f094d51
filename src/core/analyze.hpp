// The one run path from module texts plus an analysis request to what
// owl_cli prints (DESIGN.md §10).
//
// owl_cli maps its flags to an AnalysisRequest and owns its file sinks
// (--repair DIR, --sarif-out FILE, --manifest, --metrics-out, --trace-out,
// --timings); owl_served maps a request's "options" object to the same
// struct and owns its cache. Both call analyze(), which owns everything in
// between: module load/verify/entry lookup, the machine factories, the
// request → PipelineOptions mapping, per-target seeds, the jobs fan-out,
// rendering and the exit decision. The daemon's responses are therefore
// byte-identical to one-shot owl_cli by construction.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "support/audit_mode.hpp"

namespace owl::core {

/// Accepted range of an integer request field: owl_cli's flags and the
/// serve protocol's options both reject values outside it.
struct IntRange {
  std::int64_t min = 0;
  std::int64_t max = std::numeric_limits<std::int64_t>::max();

  /// Stores `value` in `out` if the range admits it; false otherwise.
  template <typename Int>
  bool assign(Int& out, std::int64_t value) const {
    if (value < min || value > max) return false;
    out = static_cast<Int>(value);
    return true;
  }
};

/// The analysis-behavioral owl_cli flags, which are also the owl_served
/// "options" object. Defaults match owl_cli with no flags, except `jobs`:
/// owl_cli defaults to one thread per hardware thread.
struct AnalysisRequest {
  std::string entry = "main";
  std::vector<std::int64_t> inputs;
  std::vector<std::int64_t> exploit_inputs;  ///< empty = same as inputs
  DetectorKind detector = DetectorKind::kTsan;
  support::AuditMode prescreen = support::AuditMode::kOff;
  support::AuditMode predict = support::AuditMode::kOff;
  support::AuditMode vuln_flow = support::AuditMode::kOff;
  unsigned schedules = 4;
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 400'000;
  bool adhoc = true;
  bool race_verifier = true;
  bool vuln_verifier = true;
  bool whole_program = false;
  bool print_module = false;
  bool print_reports = false;
  bool quiet = false;
  double stage_deadline = 0.0;  ///< 0 = unlimited
  unsigned retries = 2;
  /// Threads in total: several targets fan out across them; one target
  /// shards its race verifier's schedule exploration instead.
  unsigned jobs = 1;
  /// Stored parsed, so the cache key hashes the canonical spelling rather
  /// than whatever comma order the client typed.
  checkers::CheckerOptions checkers;
  /// `--sarif-out -`: append the SARIF 2.1.0 log to the output.
  bool sarif = false;
  /// `--repair DIR` minus the DIR: the stage runs and its path-independent
  /// report renders into the output; only owl_cli writes files.
  bool repair = false;

  /// Calls f(wire_name, field) — f(wire_name, field, range) for integer
  /// fields — for every field in wire order. The one field list behind
  /// canonical_blob(), to_json() and the serve protocol's option parser.
  template <typename Self, typename F>
  static void for_each_field(Self& r, F&& f) {
    f("entry", r.entry);
    f("inputs", r.inputs);
    f("exploit_inputs", r.exploit_inputs);
    f("detector", r.detector);
    f("prescreen", r.prescreen);
    f("predict", r.predict);
    f("vuln_flow", r.vuln_flow);
    f("schedules", r.schedules, IntRange{1, 1 << 20});
    f("seed", r.seed, IntRange{std::numeric_limits<std::int64_t>::min()});
    f("max_steps", r.max_steps, IntRange{1});
    f("adhoc", r.adhoc);
    f("race_verifier", r.race_verifier);
    f("vuln_verifier", r.vuln_verifier);
    f("whole_program", r.whole_program);
    f("print_module", r.print_module);
    f("print_reports", r.print_reports);
    f("quiet", r.quiet);
    f("stage_deadline", r.stage_deadline);
    f("retries", r.retries, IntRange{0, 1000});
    // jobs is deliberately part of the cache key even though responses are
    // byte-identical across jobs values: that equivalence is a property the
    // differential gate proves, not an assumption the cache may bake in.
    f("jobs", r.jobs, IntRange{0, 256});
    f("checkers", r.checkers);
    f("sarif", r.sarif);
    f("repair", r.repair);
  }

  /// Canonical key=value text, one field per line in wire order, with the
  /// target's display name folded in (it appears in the rendered output).
  /// This blob — not the client's JSON, whose member order the client
  /// controls — is what the serve cache key hashes.
  std::string canonical_blob(const std::string& target_name) const;

  /// Every field as one JSON object in wire order (the journal's form).
  std::string to_json() const;
};

/// Parsers of the enum-valued request fields (flag values, serve option
/// values); their wire names come from detector_kind_name
/// (core/manifest.hpp) and support::audit_mode_name.
bool parse_field(std::string_view text, DetectorKind& out) noexcept;
bool parse_field(std::string_view text, support::AuditMode& out) noexcept;

/// Sets the integer field with wire name `name` to `value` through its
/// IntRange (owl_cli's integer flags); false when out of range.
bool set_integer_field(AnalysisRequest& request, std::string_view name,
                       std::int64_t value);

/// One program to analyze.
struct ModuleSource {
  std::string name;                 ///< display name (owl_cli prints the path)
  std::optional<std::string> text;  ///< nullopt: read the file at `name`
};

/// Everything one analysis produced.
struct AnalysisOutcome {
  /// 0 ran, 1 unreadable/unparsable module or missing entry, 2 module fails
  /// verification, 3 an audit counted soundness violations.
  int exit_code = 0;
  bool ran_pipeline = false;  ///< false for load failures (uncacheable)
  bool degraded = false;      ///< some target degraded
  std::string output;         ///< owl_cli stdout bytes
  std::string error;          ///< owl_cli stderr bytes (load error, audits)
  std::string manifest;       ///< run manifest (owl_served strips its tail)
  /// The loaded modules; they keep the results' IR pointers valid.
  std::vector<std::shared_ptr<ir::Module>> modules;
  std::vector<PipelineResult> results;  ///< one per source, input order
};

/// Reads a module file; false plus the owl_cli stderr line on failure.
bool read_module_file(const std::string& path, std::string& text,
                      std::string& error);

/// Loads every source in order (the first failure ends the run with its
/// exit code), audits them as one sweep and renders the results. Never
/// throws for a bad module. `faults` (optional, not owned) injects pipeline
/// faults.
AnalysisOutcome analyze(const std::vector<ModuleSource>& sources,
                        const AnalysisRequest& request,
                        support::FaultInjector* faults = nullptr);

/// The exit-3 decision: appends one owl_cli stderr line to `error` per
/// audit kind with violations summed over `results`; 3 if any, else 0.
int audit_exit_code(const std::vector<PipelineResult>& results,
                    std::string& error);

}  // namespace owl::core
