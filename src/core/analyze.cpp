#include "core/analyze.hpp"

#include <fstream>
#include <sstream>
#include <type_traits>

#include "core/manifest.hpp"
#include "core/render.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace owl::core {
namespace {

// --- request field text: the cache-key blob and the journal JSON ---

std::string field_text(const std::string& value, bool json) {
  return json ? json_quote(value) : value;
}
std::string field_text(const std::vector<std::int64_t>& words, bool json) {
  std::string out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(words[i]);
  }
  return json ? "[" + out + "]" : out;
}
std::string field_text(bool value, bool json) {
  if (json) return value ? "true" : "false";
  return value ? "1" : "0";
}
std::string field_text(unsigned value, bool) { return std::to_string(value); }
std::string field_text(std::uint64_t value, bool json) {
  // JSON carries the signed reading: the parser takes int64 (seed may be
  // any int64, cast back on parse).
  return json ? std::to_string(static_cast<std::int64_t>(value))
              : std::to_string(value);
}
std::string field_text(double value, bool) {
  // Exact: a fixed-precision format would fold distinct deadlines (1e-7 vs
  // 0) into one cache key.
  return exact_double(value);
}
std::string field_text(DetectorKind kind, bool json) {
  return field_text(std::string(detector_kind_name(kind)), json);
}
std::string field_text(support::AuditMode mode, bool json) {
  return field_text(std::string(support::audit_mode_name(mode)), json);
}
std::string field_text(const checkers::CheckerOptions& selection, bool json) {
  return field_text(selection.canonical(), json);
}

PipelineOptions pipeline_options(const AnalysisRequest& request) {
  PipelineOptions options;
  options.enable_adhoc_annotation = request.adhoc;
  options.enable_race_verifier = request.race_verifier;
  options.enable_vuln_verifier = request.vuln_verifier;
  options.analyzer_mode =
      request.whole_program ? vuln::VulnerabilityAnalyzer::Mode::kWholeProgram
                            : vuln::VulnerabilityAnalyzer::Mode::kDirected;
  options.stage_deadline = request.stage_deadline;
  options.retry.max_retries = request.retries;
  options.prescreen = request.prescreen;
  options.predict = request.predict;
  options.vuln_flow = request.vuln_flow;
  options.checkers = request.checkers;
  options.repair = request.repair;
  options.jobs = request.jobs;
  return options;
}

}  // namespace

std::string AnalysisRequest::canonical_blob(
    const std::string& target_name) const {
  // v7 dropped the detection-substrate field (v6 printed stage_deadline
  // exactly, v5 gained vuln_flow=, v4 repair=, v3 predict=, v2
  // checkers=/sarif=); the marker bump keeps keys from older daemons
  // distinct.
  std::string out = "owl-options-v7\nname=" + target_name + "\n";
  for_each_field(*this, [&out](std::string_view name, const auto& field,
                               IntRange = {}) {
    out += std::string(name) + "=" + field_text(field, false) + "\n";
  });
  return out;
}

std::string AnalysisRequest::to_json() const {
  std::string out;
  for_each_field(*this, [&out](std::string_view name, const auto& field,
                               IntRange = {}) {
    out += out.empty() ? "{" : ",";
    out += json_quote(name) + ":" + field_text(field, true);
  });
  return out + "}";
}

bool parse_field(std::string_view text, DetectorKind& out) noexcept {
  for (const DetectorKind kind :
       {DetectorKind::kTsan, DetectorKind::kSki, DetectorKind::kAtomicity}) {
    if (text == detector_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

bool parse_field(std::string_view text, support::AuditMode& out) noexcept {
  return support::parse_audit_mode(text, out);
}

bool set_integer_field(AnalysisRequest& request, std::string_view name,
                       std::int64_t value) {
  bool ok = false;
  AnalysisRequest::for_each_field(
      request, [&](std::string_view field, auto& member, IntRange range = {}) {
        using Member = std::remove_reference_t<decltype(member)>;
        if constexpr (std::is_integral_v<Member> &&
                      !std::is_same_v<Member, bool>) {
          if (field == name) ok = range.assign(member, value);
        }
      });
  return ok;
}

bool read_module_file(const std::string& path, std::string& text,
                      std::string& error) {
  std::ifstream file(path);
  if (!file) {
    error = str_format("owl_cli: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  text = buffer.str();
  return true;
}

AnalysisOutcome analyze(const std::vector<ModuleSource>& sources,
                        const AnalysisRequest& request,
                        support::FaultInjector* faults) {
  AnalysisOutcome outcome;
  const auto load_failure = [&outcome](int exit_code, std::string error) {
    outcome.exit_code = exit_code;
    outcome.error = std::move(error);
    return std::move(outcome);
  };
  // Detection and repair-verification machines run on the testing inputs,
  // exploit machines on the exploit inputs (the testing ones when unset).
  interp::MachineOptions testing_options;
  testing_options.inputs = request.inputs;
  testing_options.max_steps = request.max_steps;
  interp::MachineOptions exploit_options = testing_options;
  if (!request.exploit_inputs.empty()) {
    exploit_options.inputs = request.exploit_inputs;
  }

  // Load and verify every module up front, in input order: the first
  // failure ends the run before any analysis.
  std::vector<PipelineTarget> targets;
  // Per-target schedule seeds: one program keeps the request seed exactly
  // (replay compatibility); several derive an independent SplitMix stream
  // per input position — a function of (seed, position) only, never of
  // worker interleaving.
  Rng seed_stream(request.seed);
  for (const ModuleSource& source : sources) {
    const char* name = source.name.c_str();
    std::string file_text;
    std::string read_error;
    if (!source.text.has_value() &&
        !read_module_file(source.name, file_text, read_error)) {
      return load_failure(1, read_error);
    }
    auto parsed = ir::parse_module(source.text ? *source.text : file_text);
    if (!parsed.is_ok()) {
      return load_failure(1, str_format("owl_cli: %s: %s\n", name,
                                        parsed.status().to_string().c_str()));
    }
    std::shared_ptr<ir::Module> module = std::move(parsed).value();
    if (const Status status = ir::verify_module(*module); !status.is_ok()) {
      return load_failure(2, str_format("owl_cli: %s: %s\n", name,
                                        status.to_string().c_str()));
    }
    const ir::Function* entry = module->find_function(request.entry);
    if (entry == nullptr || !entry->has_body()) {
      return load_failure(1, str_format("owl_cli: %s: no entry function @%s\n",
                                        name, request.entry.c_str()));
    }
    if (request.print_module) outcome.output += ir::print_module(*module);

    PipelineTarget target = machine_target(source.name, module, entry,
                                           testing_options, exploit_options);
    target.detector = request.detector;
    target.detection_schedules = request.schedules;
    target.seed =
        sources.size() == 1 ? request.seed : seed_stream.split().next();
    outcome.modules.push_back(std::move(module));
    targets.push_back(std::move(target));
  }

  PipelineOptions options = pipeline_options(request);
  if (faults != nullptr && !faults->empty()) options.fault_injector = faults;
  outcome.results = Pipeline(options).run_many(targets);
  outcome.ran_pipeline = true;
  // Tool label "owl_cli" from either front end: the manifest documents the
  // one-shot invocation the output is byte-identical to.
  outcome.manifest =
      render_manifest("owl_cli", options, targets, outcome.results);

  {
    TRACE_SPAN("render", "");
    for (const PipelineResult& result : outcome.results) {
      outcome.output += render_cli_summary(result);
      outcome.degraded = outcome.degraded || result.degraded();
    }
    for (const PipelineResult& result : outcome.results) {
      if (request.quiet) break;
      outcome.output += render_cli_details(result, request.print_reports);
    }
    if (request.sarif) outcome.output += render_sarif(outcome.results);
  }
  outcome.exit_code = audit_exit_code(outcome.results, outcome.error);
  return outcome;
}

int audit_exit_code(const std::vector<PipelineResult>& results,
                    std::string& error) {
  AuditCounts total;
  for (const PipelineResult& result : results) {
    total.prescreen += result.audit.prescreen;
    total.predict += result.audit.predict;
    total.vuln_flow += result.audit.vuln_flow;
  }
  const auto report = [&error](std::uint64_t violations, const char* what) {
    if (violations == 0) return;
    error += str_format(what, static_cast<unsigned long long>(violations));
  };
  report(total.prescreen,
         "owl_cli: prescreen audit: %llu pruned-but-raced access(es) falsify "
         "the static no-race verdict\n");
  report(total.predict,
         "owl_cli: predict audit: %llu verified race(s) the SP-closure "
         "wrongly called infeasible\n");
  report(total.vuln_flow,
         "owl_cli: vuln-flow audit: %llu runtime store->load dependence(s) "
         "missing from the static value-flow graph\n");
  return total.prescreen + total.predict + total.vuln_flow != 0 ? 3 : 0;
}

}  // namespace owl::core
