// owl_cli — audit textual MiniIR programs with the OWL pipeline.
//
// Usage:
//   owl_cli <program.mir> [more.mir ...] [options]
//
// Several programs run as one multi-target pipeline sweep on --jobs
// workers; results print in input order and are byte-identical for any
// --jobs value (each target's schedules derive from its own seed stream).
//
// Options:
//   --entry <name>         entry function spawning the threads (default: main)
//   --jobs N               worker threads: targets fan out across N workers;
//                          with one program, N>1 instead shards the race
//                          verifier's schedule exploration (default: one
//                          worker per hardware thread; 1 = sequential)
//   --timings              print one row per trace span name (count, total,
//                          mean, max seconds): the --trace-out spans, summed
//   --inputs a,b,c         workload input vector (default: empty)
//   --exploit-inputs a,b,c inputs for the vulnerability verifier re-runs
//                          (default: same as --inputs)
//   --detector tsan|ski|atomicity   front-end detector (default: tsan)
//   --prescreen MODE       static may-race prescreen: off (default), on
//                          (skip shadow work for statically race-free
//                          accesses), or audit (full detection plus
//                          pruned-but-raced violation counting; a nonzero
//                          violation count exits 3). Also --prescreen=MODE
//   --predict MODE         sync-preserving race prediction (DESIGN.md §12):
//                          off (default), on (the race verifier replays only
//                          predicted-feasible candidates, plus predicted
//                          races the observed schedules never exhibited), or
//                          audit (exhaustive path plus verdict cross-check;
//                          a nonzero violation count exits 3). Also
//                          --predict=MODE
//   --vuln-flow MODE       memory-aware value flow for Algorithm 1
//                          (DESIGN.md §14): off (default; register-only
//                          walk), on (corruption follows store->load
//                          may-alias edges into functions the call-stack
//                          walk never reaches), or audit (on plus a
//                          cross-check of every runtime-observed
//                          store->load dependence against the static edge
//                          set; a nonzero violation count exits 3). Also
//                          --vuln-flow=MODE
//   --schedules N          detection schedules (default: 4)
//   --seed S               base schedule seed (default: 1)
//   --max-steps N          per-run instruction budget (default: 400000)
//   --no-adhoc             disable adhoc-sync annotation (stage 2)
//   --no-race-verifier     disable dynamic race verification (stage 3)
//   --no-vuln-verifier     disable dynamic attack verification (stage 5)
//   --stage-deadline S     wall-clock deadline (seconds, fractional ok) for
//                          every pipeline stage; a stage that exhausts it
//                          degrades instead of running unbounded
//   --retries N            retries for schedule-dependent stages (default: 2)
//   --inject-fault SPEC    deterministic fault injection, repeatable.
//                          SPEC = stage:kind[:after] with
//                          stage in detect|annotate|race-verify|vuln-analyze|
//                          vuln-verify|check|repair and kind in stall|
//                          livelock|throw|truncate; `after` skips the first
//                          N probes
//   --checkers SEL         concurrency checker suite (DESIGN.md §11):
//                          off (default), all, or a comma list of
//                          deadlock,atomicity,lock-mismatch,condvar.
//                          Findings print in the summary/details and are
//                          byte-identical for any --jobs value. Also
//                          --checkers=SEL
//   --repair DIR           automated race repair (DESIGN.md §13): for each
//                          target with confirmed races, synthesize a patch
//                          (lock reuse / relocation / fresh lock), verify
//                          it by re-running the pipeline on the patched
//                          module (race-free incl. --predict on, no new
//                          checker finding, identical workload output) and
//                          write DIR/<stem>_fixed.mir plus
//                          DIR/<stem>_repair.json (owl-repair-v1). The
//                          rendered summary/details are independent of DIR
//                          so serve responses stay byte-identical
//   --sarif-out FILE       write checker findings as one SARIF 2.1.0 log
//                          covering every target in input order; "-"
//                          appends the log to stdout (after the details,
//                          before the timings)
//   --whole-program        ablation: ignore runtime call stacks
//   --print-module         echo the parsed module before analyzing
//   --print-reports        print every surviving race report
//   --trace-out FILE       record per-stage spans and write a Chrome
//                          trace_event JSON (about:tracing / Perfetto)
//   --manifest FILE        write the run manifest (inputs, options, seeds,
//                          per-target StageCounts, metrics snapshot)
//   --metrics-out FILE     write the deterministic metrics snapshot
//                          (support/metrics.hpp serialize() text form)
//   -q / --quiet           summary only
//
// Exit status: 0 when the pipeline ran (regardless of findings), 1 on
// usage/parse errors, 2 when the module fails verification, 3 when
// --prescreen audit, --predict audit, or --vuln-flow audit observed
// soundness violations.
//
// The analysis itself is core::analyze (core/analyze.hpp), the run path
// owl_served shares: this file maps flags to a core::AnalysisRequest and
// owns the file sinks.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/analyze.hpp"
#include "core/manifest.hpp"
#include "core/render.hpp"
#include "repair/engine.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

using namespace owl;

namespace {

/// owl_cli's flags: the analysis request plus the process-side sinks.
struct CliOptions {
  core::AnalysisRequest request;
  std::vector<std::string> paths;
  std::vector<support::FaultPlan> fault_plans;
  bool timings = false;
  std::string trace_out;    ///< Chrome trace JSON path ("" = tracing off)
  std::string manifest_out; ///< run-manifest JSON path ("" = none)
  std::string metrics_out;  ///< metrics snapshot text path ("" = none)
  std::string sarif_out;    ///< SARIF log path; "-" = stdout ("" = none)
  std::string repair_dir;   ///< --repair DIR; "" = repair stage off
};

void usage() {
  std::fprintf(stderr,
               "usage: owl_cli <program.mir> [more.mir ...]\n"
               "       [--entry main] [--inputs a,b,c] [--jobs N] [--timings]\n"
               "       [--detector tsan|ski|atomicity] [--schedules N]\n"
               "       [--prescreen off|on|audit] [--predict off|on|audit]\n"
               "       [--vuln-flow off|on|audit]\n"
               "       [--seed S] [--max-steps N] [--no-adhoc]\n"
               "       [--no-race-verifier] [--no-vuln-verifier]\n"
               "       [--whole-program] [--print-module] [--print-reports]\n"
               "       [--stage-deadline S] [--retries N]\n"
               "       [--inject-fault stage:kind[:after]] [-q|--quiet]\n"
               "       [--trace-out FILE] [--manifest FILE]\n"
               "       [--metrics-out FILE]\n"
               "       [--checkers off|all|LIST] [--sarif-out FILE|-]\n"
               "       [--repair DIR]\n");
}

/// Parses "stage:kind[:after]" into a FaultPlan via the shared parser
/// (support::parse_fault_plan — also used by owl_served); owl_cli rejects
/// the service phases, which only exist in the daemon's request lifecycle.
bool parse_fault_spec(const char* text, support::FaultPlan& plan) {
  return support::parse_fault_plan(text, plan) &&
         !support::is_service_phase(plan.stage);
}

bool parse_word_list(const char* text, std::vector<std::int64_t>& out) {
  for (const std::string& part : split(text, ',')) {
    std::int64_t value = 0;
    if (!parse_int64(part, value)) return false;
    out.push_back(value);
  }
  return true;
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  core::AnalysisRequest& request = options.request;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // The current flag's value: the next argument (null when missing) or,
    // for the flags that accept it, the text after `--flag=`.
    const char* v = nullptr;
    const auto flag = [&](std::string_view name, bool inline_value = false) {
      if (arg == name) {
        v = i + 1 < argc ? argv[++i] : nullptr;
        return true;
      }
      if (!inline_value || !arg.starts_with(name) ||
          arg.size() <= name.size() || arg[name.size()] != '=') {
        return false;
      }
      v = argv[i] + name.size() + 1;
      return true;
    };
    // Integer flags take the range owl_served enforces for the same field.
    const auto integer = [&](std::string_view field) {
      std::int64_t n = 0;
      return v != nullptr && parse_int64(v, n) &&
             core::set_integer_field(request, field, n);
    };
    const auto named = [&v](auto& out) {
      return v != nullptr && core::parse_field(v, out);
    };
    const auto path = [&v](std::string& out) {
      if (v == nullptr || *v == '\0') return false;
      out = v;
      return true;
    };
    bool ok = true;
    if (flag("--entry")) {
      ok = v != nullptr;
      if (ok) request.entry = v;
    } else if (flag("--inputs")) {
      ok = v != nullptr && parse_word_list(v, request.inputs);
    } else if (flag("--exploit-inputs")) {
      ok = v != nullptr && parse_word_list(v, request.exploit_inputs);
    } else if (flag("--detector")) {
      ok = named(request.detector);
    } else if (flag("--prescreen", true)) {
      ok = named(request.prescreen);
    } else if (flag("--predict", true)) {
      ok = named(request.predict);
    } else if (flag("--vuln-flow", true)) {
      ok = named(request.vuln_flow);
    } else if (flag("--schedules")) {
      ok = integer("schedules");
    } else if (flag("--seed")) {
      ok = integer("seed");
    } else if (flag("--max-steps")) {
      ok = integer("max_steps");
    } else if (flag("--stage-deadline")) {
      char* end = nullptr;
      ok = v != nullptr;
      if (ok) request.stage_deadline = std::strtod(v, &end);
      ok = ok && end != v && *end == '\0' && request.stage_deadline > 0;
    } else if (flag("--retries")) {
      ok = integer("retries");
    } else if (flag("--jobs")) {
      ok = integer("jobs");
      if (request.jobs == 0) request.jobs = support::ThreadPool::default_jobs();
    } else if (flag("--checkers", true)) {
      std::string error;
      ok = v != nullptr &&
           checkers::CheckerOptions::parse(v, request.checkers, error);
      if (!error.empty()) std::fprintf(stderr, "owl_cli: %s\n", error.c_str());
    } else if (flag("--trace-out")) {
      ok = path(options.trace_out);
    } else if (flag("--manifest")) {
      ok = path(options.manifest_out);
    } else if (flag("--metrics-out")) {
      ok = path(options.metrics_out);
    } else if (flag("--sarif-out")) {
      ok = path(options.sarif_out);
    } else if (flag("--repair")) {
      ok = path(options.repair_dir);
    } else if (flag("--inject-fault")) {
      support::FaultPlan plan;
      ok = v != nullptr && parse_fault_spec(v, plan);
      if (ok) options.fault_plans.push_back(std::move(plan));
    } else if (arg == "--timings") {
      options.timings = true;
    } else if (arg == "--no-adhoc") {
      request.adhoc = false;
    } else if (arg == "--no-race-verifier") {
      request.race_verifier = false;
    } else if (arg == "--no-vuln-verifier") {
      request.vuln_verifier = false;
    } else if (arg == "--whole-program") {
      request.whole_program = true;
    } else if (arg == "--print-module") {
      request.print_module = true;
    } else if (arg == "--print-reports") {
      request.print_reports = true;
    } else if (arg == "-q" || arg == "--quiet") {
      request.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      options.paths.emplace_back(arg);
    }
    if (!ok) return false;
  }
  request.sarif = options.sarif_out == "-";
  request.repair = !options.repair_dir.empty();
  return !options.paths.empty();
}

/// Writes `text` to `path`; on failure warns on stderr and returns false.
bool write_file(const std::string& path, const std::string& text,
                const char* what) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();
  if (out) return true;
  std::fprintf(stderr, "owl_cli: cannot write %s to %s\n", what,
               path.c_str());
  return false;
}

/// --repair DIR: <stem>_repair.json per repaired target, plus
/// <stem>_fixed.mir when a patch won. owl_served never writes files; the
/// rendered output carries everything path-independent.
bool write_repair_files(const std::string& dir,
                        const std::vector<core::PipelineResult>& results) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  bool ok = true;
  for (const core::PipelineResult& result : results) {
    if (!result.counts.repair_ran) continue;
    const std::string fixed_name =
        repair::fixed_module_name(result.target_name);
    const std::string stem =
        fixed_name.substr(0, fixed_name.size() - std::strlen("_fixed.mir"));
    ok &= write_file(dir + "/" + stem + "_repair.json",
                     repair::render_repair_json(result.repair,
                                                result.target_name),
                     "repair report");
    if (result.repair.status == "repaired" &&
        !result.repair.patched_text.empty()) {
      ok &= write_file(dir + "/" + fixed_name, result.repair.patched_text,
                       "fixed module");
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  options.request.jobs = support::ThreadPool::default_jobs();
  if (!parse_args(argc, argv, options)) {
    usage();
    return 1;
  }
  const core::AnalysisRequest& request = options.request;
  support::FaultInjector injector(request.seed);
  for (const support::FaultPlan& plan : options.fault_plans) {
    injector.add_plan(plan);
  }
  support::TraceCollector& trace = support::TraceCollector::instance();
  trace.set_enabled(!options.trace_out.empty() || options.timings);
  std::vector<core::ModuleSource> sources;
  for (const std::string& path : options.paths) sources.push_back({path, {}});

  const core::AnalysisOutcome outcome =
      core::analyze(sources, request, &injector);
  std::fputs(outcome.output.c_str(), stdout);
  if (!outcome.ran_pipeline) {
    std::fputs(outcome.error.c_str(), stderr);
    return outcome.exit_code;
  }
  if (!options.manifest_out.empty() &&
      !core::write_manifest(options.manifest_out, outcome.manifest)) {
    // An unwritable manifest must not degrade the results themselves — it
    // is observability, not behavior. Loud log, nothing else.
    OWL_LOG(kWarn) << "run manifest not written to " << options.manifest_out;
  }

  int status = 0;
  if (!options.repair_dir.empty() &&
      !write_repair_files(options.repair_dir, outcome.results)) {
    status = 1;
  }
  if (!options.sarif_out.empty() && options.sarif_out != "-" &&
      !write_file(options.sarif_out, core::render_sarif(outcome.results),
                  "SARIF")) {
    status = 1;
  }
  if (options.timings) {
    std::printf("\n--- per-stage timings (jobs=%u) ---\n", request.jobs);
    for (const support::SpanTiming& row :
         support::span_timings(trace.snapshot())) {
      std::printf(
          "  %-20s count %4zu  total %8.3fs  mean %8.4fs  max %8.4fs\n",
          row.name.c_str(), row.count, row.total_seconds,
          row.total_seconds / static_cast<double>(row.count), row.max_seconds);
    }
  }
  if (!options.trace_out.empty() &&
      !trace.write_chrome_trace(options.trace_out)) {
    std::fprintf(stderr, "owl_cli: cannot write trace to %s\n",
                 options.trace_out.c_str());
    status = 1;
  }
  if (!options.metrics_out.empty() &&
      !write_file(options.metrics_out, support::metrics().serialize(),
                  "metrics")) {
    status = 1;
  }
  std::fputs(outcome.error.c_str(), stderr);
  return outcome.exit_code != 0 ? outcome.exit_code : status;
}
