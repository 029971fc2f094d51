#include "core/manifest.hpp"

#include <cstdio>

#include "support/audit_mode.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"

namespace owl::core {
namespace {

std::string kv_json(const ManifestKv& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i != 0) out += ',';
    out += json_quote(kv[i].first) + ":" + json_quote(kv[i].second);
  }
  out += "}";
  return out;
}

/// StageCounts as JSON, wall-clock excluded: avg_analysis_seconds varies
/// run to run even when behavior is identical, so it is not part of the
/// diffable body.
std::string counts_json(const StageCounts& counts) {
  std::string out = str_format(
      "{\"raw_reports\":%zu,\"adhoc_syncs\":%zu,\"after_annotation\":%zu,"
      "\"verifier_eliminated\":%zu,\"remaining\":%zu,"
      "\"vulnerability_reports\":%zu,\"retries_used\":%u,",
      counts.raw_reports, counts.adhoc_syncs, counts.after_annotation,
      counts.verifier_eliminated, counts.remaining,
      counts.vulnerability_reports, counts.retries_used);
  if (counts.checkers_ran) {
    // Present only when the checker stage ran, so manifests from
    // checkers-off runs stay byte-identical to pre-suite ones.
    out += str_format("\"checker_findings\":%zu,", counts.checker_findings);
  }
  if (counts.repair_ran) {
    // Same gating for the repair stage: off-mode manifests carry no
    // repair keys at all.
    out += str_format("\"repair_status\":%s,\"repair_candidates\":%zu,",
                      json_quote(counts.repair_status).c_str(),
                      counts.repair_candidates);
  }
  out += str_format("\"resilience\":%s,\"failures\":[",
                    json_quote(counts.resilience_summary()).c_str());
  for (std::size_t i = 0; i < counts.failures.size(); ++i) {
    const support::FailureRecord& record = counts.failures[i];
    if (i != 0) out += ',';
    out += str_format(
        "{\"stage\":%s,\"cause\":%s,\"detail\":%s,\"steps_spent\":%llu,"
        "\"retries\":%u}",
        json_quote(support::pipeline_stage_name(record.stage)).c_str(),
        json_quote(support::failure_cause_name(record.cause)).c_str(),
        json_quote(record.detail).c_str(),
        static_cast<unsigned long long>(record.steps_spent), record.retries);
  }
  out += "]}";
  return out;
}

std::string target_json(const ManifestTarget& target,
                        const PipelineResult& result) {
  return str_format(
      "{\"name\":%s,\"seed\":%llu,\"detector\":%s,\"schedules\":%u,"
      "\"counts\":%s,\"exploits\":%zu,\"attacks\":%zu,"
      "\"confirmed_attacks\":%zu,\"degraded\":%s}",
      json_quote(target.name).c_str(),
      static_cast<unsigned long long>(target.seed),
      json_quote(target.detector).c_str(), target.schedules,
      counts_json(result.counts).c_str(), result.exploits.size(),
      result.attacks.size(), result.confirmed_attacks(),
      result.degraded() ? "true" : "false");
}

}  // namespace

std::string_view detector_kind_name(DetectorKind kind) noexcept {
  switch (kind) {
    case DetectorKind::kTsan: return "tsan";
    case DetectorKind::kSki: return "ski";
    case DetectorKind::kAtomicity: return "atomicity";
  }
  return "unknown";
}

std::string render_manifest(const std::string& tool, const ManifestKv& options,
                            const std::vector<ManifestTarget>& targets,
                            const std::vector<PipelineResult>& results,
                            const ManifestKv& environment) {
  const support::MetricsRegistry& registry = support::metrics();
  std::string out = "{\n";
  out += " \"schema\":\"owl-manifest-v1\",\n";
  out += " \"tool\":" + json_quote(tool) + ",\n";
  out += " \"options\":" + kv_json(options) + ",\n";
  out += " \"targets\":[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    static const ManifestTarget kUnknown;
    const ManifestTarget& meta = i < targets.size() ? targets[i] : kUnknown;
    out += "  " + target_json(meta, results[i]);
    if (i + 1 < results.size()) out += ',';
    out += '\n';
  }
  out += " ],\n";
  out += " \"metrics\":" + registry.json() + ",\n";
  // Everything below is the non-diffable tail: wall clock, worker counts,
  // anything that may legally differ between behaviorally identical runs.
  double total_seconds = 0.0;
  for (const PipelineResult& result : results) {
    total_seconds += result.total_seconds;
  }
  out += " \"environment\":{";
  out += "\"total_seconds\":" + str_format("%.6f", total_seconds);
  out += ",\"advisory_metrics\":" + registry.advisory_json();
  for (const auto& [key, value] : environment) {
    out += "," + json_quote(key) + ":" + json_quote(value);
  }
  out += "}\n}\n";
  return out;
}

std::string render_manifest(const std::string& tool,
                            const PipelineOptions& options,
                            const std::vector<PipelineTarget>& targets,
                            const std::vector<PipelineResult>& results) {
  ManifestKv kv;
  kv.reserve(10);
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  kv.emplace_back("enable_adhoc_annotation",
                  flag(options.enable_adhoc_annotation));
  kv.emplace_back("enable_race_verifier", flag(options.enable_race_verifier));
  kv.emplace_back("enable_vuln_verifier", flag(options.enable_vuln_verifier));
  kv.emplace_back("race_verifier_attempts",
                  str_format("%u", kRaceVerifierAttempts));
  kv.emplace_back("analyzer_mode",
                  options.analyzer_mode ==
                          vuln::VulnerabilityAnalyzer::Mode::kDirected
                      ? "directed"
                      : "whole-program");
  kv.emplace_back("retries", str_format("%u", options.retry.max_retries));
  kv.emplace_back("stage_deadline_seconds",
                  exact_double(options.stage_deadline));
  kv.emplace_back("fault_injection", flag(options.fault_injector != nullptr));
  if (options.checkers.any()) {
    // Echoed only when enabled — checkers-off manifests keep the
    // pre-suite options block byte for byte.
    kv.emplace_back("checkers", options.checkers.canonical());
  }
  if (options.repair) {
    // Same off-mode discipline as the checkers echo above.
    kv.emplace_back("repair", "on");
  }

  std::vector<ManifestTarget> metas;
  metas.reserve(targets.size());
  for (const PipelineTarget& target : targets) {
    ManifestTarget meta;
    meta.name = target.name;
    meta.seed = target.seed;
    meta.detector = detector_kind_name(target.detector);
    meta.schedules = target.detection_schedules;
    metas.push_back(std::move(meta));
  }

  ManifestKv environment;
  environment.reserve(5);
  environment.emplace_back("jobs", str_format("%u", options.jobs));
  // Where Pipeline::run_many puts the jobs threads: a lone target's race
  // verifier shards its attempts over them unless faults are injected.
  environment.emplace_back(
      "verifier_pool", flag(targets.size() == 1 && options.jobs != 1 &&
                            options.fault_injector == nullptr));
  // Environment, not options: the prescreen gate byte-diffs manifest
  // bodies across modes, so the mode echo must live in the stripped tail.
  environment.emplace_back(
      "prescreen", std::string(support::audit_mode_name(options.prescreen)));
  environment.emplace_back(
      "predict", std::string(support::audit_mode_name(options.predict)));
  environment.emplace_back(
      "vuln_flow", std::string(support::audit_mode_name(options.vuln_flow)));
  return render_manifest(tool, kv, metas, results, environment);
}

std::string strip_manifest_environment(const std::string& manifest_json) {
  static constexpr std::string_view kMarker = "\n \"environment\":{";
  const std::size_t pos = manifest_json.rfind(kMarker);
  if (pos == std::string::npos) return manifest_json;
  std::string body = manifest_json.substr(0, pos);
  // The preceding "metrics" line ends with the ',' that introduced the
  // environment object; drop it so the body stays valid JSON.
  if (!body.empty() && body.back() == ',') body.pop_back();
  body += "\n}\n";
  return body;
}

bool write_manifest(const std::string& path, const std::string& json) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  if (written != json.size()) {
    std::fclose(file);
    return false;
  }
  return std::fclose(file) == 0;
}

}  // namespace owl::core
