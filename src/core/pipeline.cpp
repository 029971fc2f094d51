#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "analysis/static_info.hpp"
#include "race/atomicity_detector.hpp"
#include "race/predict/sp_predictor.hpp"
#include "repair/engine.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"
#include "sync/annotator.hpp"
#include "vuln/hint.hpp"

namespace owl::core {

/// Records runtime store→load dependences during detection runs
/// (--vuln-flow audit): per-address last writer, then (writer, reader)
/// instruction pairs on every read. Address maps reset per machine run —
/// simulated addresses are only meaningful within one execution.
class FlowAuditRecorder final : public interp::Observer {
 public:
  void begin_run() { last_write_.clear(); }

  void on_access(const Access& access, const interp::Machine&) override {
    if (access.instr == nullptr) return;
    if (access.is_write) {
      last_write_[access.addr] = access.instr;
      return;
    }
    const auto it = last_write_.find(access.addr);
    if (it != last_write_.end() && it->second != access.instr) {
      pairs_.insert({it->second, access.instr});
    }
  }
  void on_sync(const Sync&, const interp::Machine&) override {}

  /// Observed (writer, reader) instruction pairs, deduplicated.
  const std::set<std::pair<const ir::Instruction*, const ir::Instruction*>>&
  pairs() const noexcept {
    return pairs_;
  }

 private:
  std::unordered_map<interp::Address, const ir::Instruction*> last_write_;
  std::set<std::pair<const ir::Instruction*, const ir::Instruction*>> pairs_;
};

namespace {

using support::FailureCause;
using support::FaultInjector;
using support::FaultKind;
using support::PipelineStage;

/// Schedules the step-(5) verifier tries per exploit candidate.
constexpr unsigned kVulnVerifierAttempts = 8;

// The prescreen treats integer constants below this limit as null-page
// values that can never alias a real object; the detector's dynamic
// re-check uses the interpreter's actual guard. They must agree.
static_assert(analysis::kSafeConstantLimit ==
                  static_cast<std::int64_t>(interp::kNullGuard),
              "prescreen constant-literal limit out of sync with the "
              "interpreter's null guard page");

void record_failure(StageCounts& counts, PipelineStage stage,
                    FailureCause cause, std::string detail,
                    std::uint64_t steps_spent = 0, unsigned retries = 0) {
  support::FailureRecord record;
  record.stage = stage;
  record.cause = cause;
  record.detail = std::move(detail);
  record.steps_spent = steps_spent;
  record.retries = retries;
  OWL_LOG(kWarn) << "pipeline stage degraded: " << record.to_string();
  support::metrics()
      .counter("pipeline.failures." +
               std::string(support::pipeline_stage_name(stage)))
      .inc();
  counts.failures.push_back(std::move(record));
}

/// Attributes non-throwing injected faults (stalls, truncation) observed
/// since begin_stage to the stage's accounting, so a fault-injection run
/// reports exactly what it degraded.
void attribute_injected(FaultInjector* injector, StageCounts& counts,
                        PipelineStage stage) {
  if (injector == nullptr) return;
  if (injector->fired_in_stage(FaultKind::kSchedulerStall)) {
    record_failure(counts, stage, FailureCause::kSchedulerStall,
                   "injected scheduler stall burned the schedule");
  }
  if (injector->fired_in_stage(FaultKind::kTruncatedEvents)) {
    record_failure(counts, stage, FailureCause::kTruncatedEvents,
                   "injected truncation dropped observer events");
  }
}

/// True (after recording why) when `budget` is exhausted with `total -
/// done` units of the stage's work — `what` — still undone.
bool out_of_budget(const support::Budget& budget, StageCounts& counts,
                   PipelineStage stage, std::size_t done, std::size_t total,
                   const char* what) {
  const auto cause = budget.exhausted_by();
  if (!cause) return false;
  record_failure(counts, stage, *cause,
                 str_format("%zu of %zu %s", total - done, total, what),
                 budget.steps_spent());
  return true;
}

/// The envelope every stage of Pipeline::run executes in: its trace span
/// (which --timings reads too), the fault injector's stage context, and the
/// maybe_throw probe whose exception degrades the stage into a
/// FailureRecord instead of sinking the target.
class StageRunner {
 public:
  StageRunner(const PipelineOptions& options, const std::string& target,
              StageCounts& counts)
      : options_(options), target_(target), counts_(counts) {}

  /// Runs `body` inside the span named `name`; returns its value.
  template <typename Body>
  decltype(auto) timed(std::string_view name, Body&& body) const {
    TRACE_SPAN(name, target_);
    return body();
  }

  /// timed() for an injectable stage: enters its injector context first.
  template <typename Body>
  void enter(PipelineStage stage, Body&& body) const {
    if (injector() != nullptr) injector()->begin_stage(stage);
    timed(support::pipeline_stage_name(stage), body);
  }

  /// Probes maybe_throw, then runs `body`; an exception becomes one
  /// `stage` FailureRecord. False when the body did not finish.
  template <typename Body>
  bool guard(PipelineStage stage, Body&& body) const {
    try {
      if (injector() != nullptr) injector()->maybe_throw();
      body();
      return true;
    } catch (const std::exception& error) {
      record_failure(counts_, stage, FailureCause::kException, error.what());
      return false;
    }
  }

  /// enter() + guard(): a stage that finishes or degrades as a whole.
  template <typename Body>
  bool run(PipelineStage stage, Body&& body) const {
    bool finished = false;
    enter(stage, [&] { finished = guard(stage, body); });
    return finished;
  }

  /// The per-item retry loop: up to `attempts` rounds of the maybe_throw
  /// probe plus `body(attempt)`, charging the retries used. Returns the
  /// last exception's text when every round threw.
  template <typename Body>
  std::optional<std::string> attempt_item(unsigned attempts,
                                          Body&& body) const {
    for (unsigned attempt = 0;; ++attempt) {
      try {
        if (injector() != nullptr) injector()->maybe_throw();
        body(attempt);
        counts_.retries_used += attempt;
        return std::nullopt;
      } catch (const std::exception& error) {
        if (attempt + 1 < attempts) continue;
        counts_.retries_used += attempt;
        return error.what();
      }
    }
  }

  /// attempt_item() under the retry policy, for the verification stages.
  /// False when every attempt threw; the stage's first such item records
  /// one FailureRecord (repeating it per item is noise).
  template <typename Body>
  bool retry_item(PipelineStage stage, bool& failure_recorded,
                  Body&& body) const {
    const unsigned attempts = options_.retry.max_attempts();
    const std::optional<std::string> error = attempt_item(attempts, body);
    if (error.has_value() && !failure_recorded) {
      record_failure(counts_, stage, FailureCause::kException, *error, 0,
                     attempts - 1);
      failure_recorded = true;
    }
    return !error.has_value();
  }

 private:
  FaultInjector* injector() const { return options_.fault_injector; }

  const PipelineOptions& options_;
  const std::string& target_;
  StageCounts& counts_;
};

}  // namespace

std::size_t PipelineResult::confirmed_attacks() const noexcept {
  std::size_t n = 0;
  for (const ConcurrencyAttack& attack : attacks) {
    if (attack.confirmed()) ++n;
  }
  return n;
}

std::vector<race::RaceReport> Pipeline::detect_once(
    const PipelineTarget& target, const race::AnnotationSet* annotations,
    race::PrescreenView prescreen, std::uint64_t base_seed,
    support::Budget& budget, PipelineResult& result,
    race::predict::TraceRecorder* recorder,
    FlowAuditRecorder* flow_audit) const {
  std::vector<race::RaceReport> merged;
  // Each pass starts a fresh trace set: the predict stage reasons over the
  // final (annotated, when there is one) pass — the same report stream the
  // verifier sees.
  if (recorder != nullptr) recorder->begin_pass(annotations);
  for (unsigned i = 0; i < target.detection_schedules; ++i) {
    if (out_of_budget(budget, result.counts, PipelineStage::kDetection, i,
                      target.detection_schedules, "schedules skipped")) {
      break;
    }
    TRACE_SPAN("detect-schedule", target.name);
    support::metrics().counter("pipeline.detection_schedules").inc();
    std::unique_ptr<interp::Machine> machine = target.factory();
    machine->set_fault_injector(options_.fault_injector);
    // §8.3 extension: an atomicity-violation detector feeding the same
    // report stream. Annotations do not apply to it (the triples are
    // already schedule-classified).
    std::optional<race::AtomicityDetector> atomicity;
    std::unique_ptr<race::TsanDetector> detector;
    std::unique_ptr<interp::Scheduler> scheduler;
    if (target.detector == DetectorKind::kAtomicity) {
      machine->add_observer(&atomicity.emplace());
      scheduler = std::make_unique<interp::RandomScheduler>(base_seed + i);
    } else if (target.detector == DetectorKind::kSki) {
      detector = std::make_unique<race::SkiDetector>(annotations, prescreen);
      scheduler = std::make_unique<interp::PctScheduler>(
          base_seed + i, /*depth=*/3, /*expected_steps=*/20000);
    } else {
      detector = std::make_unique<race::TsanDetector>(
          annotations, /*ski_watch_mode=*/false, prescreen);
      scheduler = std::make_unique<interp::RandomScheduler>(base_seed + i);
    }
    if (detector != nullptr) machine->add_observer(detector.get());
    if (recorder != nullptr) {
      machine->add_observer(recorder);
      recorder->begin_run();
    }
    if (flow_audit != nullptr) {
      machine->add_observer(flow_audit);
      flow_audit->begin_run();
    }
    const interp::RunResult run = machine->run(*scheduler);
    if (recorder != nullptr) recorder->finish_run(*machine);
    budget.charge_steps(run.steps);
    if (atomicity.has_value()) {
      std::vector<race::RaceReport> converted;
      for (const race::AtomicityReport& report : atomicity->take_reports()) {
        converted.push_back(report.to_race_report());
      }
      race::merge_reports(merged, std::move(converted));
      continue;
    }
    // Read before take_reports() flushes the counters into the registry.
    result.audit.prescreen +=
        detector->substrate_counters().prescreen_audit_violations;
    race::merge_reports(merged, detector->take_reports());
  }
  return merged;
}

std::optional<std::vector<race::RaceReport>> Pipeline::detect(
    const PipelineTarget& target, const race::AnnotationSet* annotations,
    race::PrescreenView prescreen, PipelineResult& result,
    race::predict::TraceRecorder* recorder,
    FlowAuditRecorder* flow_audit) const {
  FaultInjector* injector = options_.fault_injector;
  const support::RetryPolicy& retry = options_.retry;
  StageCounts& counts = result.counts;
  for (unsigned attempt = 0; attempt < retry.max_attempts(); ++attempt) {
    if (injector != nullptr) {
      injector->begin_stage(PipelineStage::kDetection);
    }
    support::Budget budget(
        retry.budget_for(options_.stage_budgets.detection, attempt));
    try {
      if (injector != nullptr) injector->maybe_throw();
      std::vector<race::RaceReport> merged = detect_once(
          target, annotations, prescreen,
          retry.seed_for(target.seed, attempt), budget, result, recorder,
          flow_audit);
      counts.retries_used += attempt;
      attribute_injected(injector, counts, PipelineStage::kDetection);
      return merged;
    } catch (const std::exception& error) {
      if (attempt + 1 >= retry.max_attempts()) {
        record_failure(counts, PipelineStage::kDetection,
                       FailureCause::kException, error.what(),
                       budget.steps_spent(), attempt);
        counts.retries_used += attempt;
        return std::nullopt;
      }
      OWL_LOG(kInfo) << target.name << ": detection attempt " << attempt
                     << " failed (" << error.what()
                     << "), retrying with rotated seed";
    }
  }
  return std::nullopt;
}

PipelineResult Pipeline::run(const PipelineTarget& target) const {
  if (target.module == nullptr) {
    throw std::invalid_argument("pipeline target " + target.name +
                                " has no module");
  }
  const auto t0 = std::chrono::steady_clock::now();
  TRACE_SPAN("target", target.name);
  support::metrics().counter("pipeline.targets").inc();
  PipelineResult result;
  result.target_name = target.name;
  StageCounts& counts = result.counts;
  FaultInjector* injector = options_.fault_injector;
  const support::RetryPolicy& retry = options_.retry;
  if (injector != nullptr) injector->begin_target(target.name);
  const StageRunner stages(options_, target.name, counts);

  // ---- step (0): whole-module static analysis ----
  // Computed once per target, in every mode: the resolved indirect calls
  // feed Algorithm 1 unconditionally, and the static counters flushed
  // below are part of the behavioral snapshot (mode-independent, so the
  // prescreen differential gate can byte-diff snapshots across modes).
  const analysis::ModuleStatic module_static =
      stages.timed("static-analysis",
                   [&] { return analysis::ModuleStatic(*target.module); });
  race::PrescreenView prescreen;
  if (!module_static.prescreen.pruning_enabled()) {
    OWL_LOG(kInfo) << target.name << ": prescreen pruning disabled ("
                   << module_static.prescreen.disable_reason() << ")";
  } else if (options_.prescreen != race::PrescreenMode::kOff) {
    prescreen.mode = options_.prescreen;
    prescreen.no_race = &module_static.prescreen.no_race();
  }

  // ---- checker suite (optional, DESIGN.md §11) ----
  // Static detection of deadlock / atomicity / lock-mismatch / CV-misuse
  // bugs over the step-(0) facts, with lock-order cycles confirmed by
  // scheduler replay through target.factory. Degrades, never dies: a
  // throwing checker leaves a FailureRecord and the Fig. 3 stages run on.
  if (options_.checkers.any()) {
    counts.checkers_ran = true;
    stages.run(PipelineStage::kCheckers, [&] {
      const checkers::AnalysisContext ctx(*target.module, module_static,
                                          target.factory);
      result.checker_findings = checkers::run_checkers(options_.checkers, ctx);
    });
    counts.checker_findings = result.checker_findings.size();
    OWL_LOG(kInfo) << target.name << ": " << result.checker_findings.size()
                   << " checker finding(s) ["
                   << options_.checkers.canonical() << "]";
  }

  // ---- value-flow graph (--vuln-flow on/audit, DESIGN.md §14) ----
  // Built only when the mode asks for it: off-mode runs never construct
  // the graph, never emit its metrics, and stay byte-identical.
  std::optional<analysis::ValueFlowGraph> value_flow;
  if (options_.vuln_flow != analysis::ValueFlowMode::kOff) {
    stages.timed("value-flow", [&] {
      value_flow.emplace(*target.module, module_static.points_to,
                         module_static.resolved_calls);
    });
  }
  FlowAuditRecorder flow_recorder;
  FlowAuditRecorder* flow_audit =
      options_.vuln_flow == analysis::ValueFlowMode::kAudit ? &flow_recorder
                                                            : nullptr;

  // Event-trace capture for the predict stage (DESIGN.md §12): attached to
  // every detection pass; only the last pass's traces survive, so the
  // predictor reasons over exactly the executions that produced `reduced`.
  // Atomicity targets are out of SP theory's scope and never record.
  const bool predict_active = options_.predict != race::PredictMode::kOff &&
                              target.detector != DetectorKind::kAtomicity;
  race::predict::TraceRecorder trace_recorder;
  race::predict::TraceRecorder* recorder =
      predict_active ? &trace_recorder : nullptr;

  // ---- step (1): raw detection ----
  std::vector<race::RaceReport> raw = stages.timed("detection", [&] {
    return detect(target, nullptr, prescreen, result, recorder, flow_audit)
        .value_or(std::vector<race::RaceReport>{});
  });
  counts.raw_reports = raw.size();
  OWL_LOG(kInfo) << target.name << ": " << raw.size() << " raw race reports";

  // ---- step (2): adhoc-sync annotation + re-run ----
  result.store.set_stage(Stage::kRawDetection, raw);
  std::vector<race::RaceReport> reduced;
  stages.enter(PipelineStage::kAnnotation, [&] {
    const race::AnnotationSet* annotations = options_.preset_annotations;
    std::optional<sync::AnnotationOutcome> outcome;
    if (annotations != nullptr) {
      counts.adhoc_syncs = annotations->pair_count();
    } else if (options_.enable_adhoc_annotation) {
      stages.guard(PipelineStage::kAnnotation, [&] {
        outcome = sync::annotate_adhoc_syncs(*target.module, raw);
      });
      if (outcome.has_value()) {
        counts.adhoc_syncs = outcome->unique_adhoc_syncs;
        annotations = &outcome->annotations;
      }
    }
    if (annotations == nullptr || annotations->empty()) {
      reduced = std::move(raw);
    } else {
      reduced = detect(target, annotations, prescreen, result, recorder,
                       flow_audit)
                    .value_or(raw);  // degraded re-run: keep raw reports
    }
  });
  counts.after_annotation = reduced.size();
  result.store.set_stage(Stage::kAfterAnnotation, reduced);
  OWL_LOG(kInfo) << target.name << ": " << reduced.size()
                 << " reports after annotation (" << counts.adhoc_syncs
                 << " adhoc syncs)";

  // ---- predict stage: sync-preserving race prediction (DESIGN.md §12) ----
  // Decides, from the traces the detection schedules already produced,
  // which reduced reports any sync-preserving reordering could co-enable —
  // and which unreported pairs could race. kOn prunes the verifier's input
  // to the feasible set and adds the predicted-new candidates (each still
  // subject to replay confirmation below); kAudit computes verdicts only
  // and cross-checks them after verification. A predictor failure degrades
  // to exhaustive behavior: nothing pruned, nothing added.
  const std::size_t reduced_from_detector = reduced.size();
  std::optional<race::predict::PredictOutcome> predict_outcome;
  const auto infeasible = [&predict_outcome](const race::RaceReport& report) {
    return predict_outcome->verdict_for(report.key()) ==
           race::predict::Feasibility::kInfeasible;
  };
  if (predict_active) {
    counts.predict_ran = true;
    stages.enter(PipelineStage::kPredict, [&] {
      stages.guard(PipelineStage::kPredict, [&] {
        const race::predict::SpPredictor predictor;
        predict_outcome =
            predictor.analyze(target.module, trace_recorder.traces(), reduced);
      });
      if (!predict_outcome.has_value()) return;
      counts.predict_candidates = predict_outcome->candidates;
      counts.predict_pruned = static_cast<std::size_t>(
          std::count_if(reduced.begin(), reduced.end(), infeasible));
      if (options_.predict == race::PredictMode::kOn) {
        std::erase_if(reduced, infeasible);
        reduced.insert(reduced.end(), predict_outcome->predicted_new.begin(),
                       predict_outcome->predicted_new.end());
        std::sort(reduced.begin(), reduced.end(), race::report_order);
        // Every pruned report would have burned its full attempt budget
        // (an infeasible pair never verifies, and failure has no early
        // exit) — that is the exploration this stage saves.
        counts.predict_schedules_avoided =
            counts.predict_pruned * options_.race_verifier_attempts;
      }
      OWL_LOG(kInfo) << target.name << ": predict checked "
                     << predict_outcome->candidates << " candidate pair(s), "
                     << counts.predict_pruned << " infeasible, "
                     << predict_outcome->predicted_new.size()
                     << " predicted-new";
    });
  }

  // ---- step (3): dynamic race verification ----
  std::vector<race::RaceReport> survivors;
  if (options_.enable_race_verifier) {
    stages.enter(PipelineStage::kRaceVerification, [&] {
      support::Budget budget(options_.stage_budgets.race_verification);
      std::size_t livelocked = 0;
      std::size_t passed_through = 0;
      bool failure_recorded = false;
      for (std::size_t r = 0; r < reduced.size(); ++r) {
        race::RaceReport& report = reduced[r];
        if (out_of_budget(budget, counts, PipelineStage::kRaceVerification, r,
                          reduced.size(),
                          "reports passed through unverified")) {
          // The rest pass through unverified (conservative: degradation
          // must not hide attacks) — except predicted candidates, which
          // are hypotheses, not observations.
          for (std::size_t k = r; k < reduced.size(); ++k) {
            if (!reduced[k].predicted) {
              survivors.push_back(reduced[k]);
            }
          }
          break;
        }
        verify::RaceVerifyResult vr;
        const bool ran = stages.retry_item(
            PipelineStage::kRaceVerification, failure_recorded,
            [&](unsigned attempt) {
              verify::RaceVerifier::Options vopts;
              vopts.max_attempts = options_.race_verifier_attempts;
              vopts.base_seed =
                  retry.seed_for(target.seed * 7919 + 13, attempt);
              vopts.fault_injector = injector;
              // Schedule-exploration sharding: the verifier itself falls
              // back to the sequential loop whenever the injector makes
              // attempts order-dependent.
              vopts.pool = options_.verifier_pool;
              vr = verify::RaceVerifier(vopts).verify(report, target.factory);
            });
        if (ran) {
          budget.charge_steps(vr.steps_spent);
          if (vr.verified) {
            survivors.push_back(report);
            continue;
          }
          // Cleanly eliminated: the R.V.E. path.
          if (!vr.livelocked) continue;
          ++livelocked;
        }
        if (!report.predicted) {
          survivors.push_back(report);
          ++passed_through;
        }
      }
      if (livelocked > 0) {
        record_failure(
            counts, PipelineStage::kRaceVerification, FailureCause::kLivelock,
            str_format("%zu report(s) livelocked or ran out of budget; %zu "
                       "passed through unverified",
                       livelocked, passed_through),
            budget.steps_spent());
      }
    });
    // Elimination is counted against the *detector's* reduced set, so the
    // Table 3 column means the same thing in every predict mode: a report
    // the predictor pruned counts as eliminated (the verifier would have
    // eliminated it dynamically), while a confirmed predicted-new report
    // is an addition, not a survivor of reduction.
    std::size_t detector_survivors = 0;
    for (const race::RaceReport& report : survivors) {
      if (!report.predicted) ++detector_survivors;
      else ++counts.predict_new_confirmed;
    }
    counts.verifier_eliminated =
        reduced_from_detector >= detector_survivors
            ? reduced_from_detector - detector_survivors
            : 0;
  } else {
    // Without the verifier there is no replay confirmation, so predicted
    // candidates are dropped rather than reported as observations.
    std::erase_if(reduced, [](const race::RaceReport& report) {
      return report.predicted;
    });
    survivors = std::move(reduced);
  }
  counts.remaining = survivors.size();
  result.store.set_stage(Stage::kAfterRaceVerifier, std::move(survivors));
  const std::vector<race::RaceReport>& final_reports =
      result.store.stage(Stage::kAfterRaceVerifier);
  OWL_LOG(kInfo) << target.name << ": " << final_reports.size()
                 << " verified races remain";

  // Audit cross-check: a replay-confirmed data race the predictor called
  // infeasible falsifies the pruning verdict — with --predict on that race
  // would have been lost.
  if (options_.predict == race::PredictMode::kAudit &&
      predict_outcome.has_value()) {
    for (const race::RaceReport& report : final_reports) {
      if (report.kind == race::ReportKind::kDataRace && report.verified &&
          infeasible(report)) {
        ++result.audit.predict;
      }
    }
    support::metrics().advisory("predict.audit_violations")
        .inc(result.audit.predict);
  }

  // Flow-audit cross-check: every store→load dependence the detection
  // schedules actually exhibited must be explained by a static mem edge
  // (or flagged unknown on either side). An uncovered pair means the
  // value-flow graph would have missed a real memory-mediated propagation
  // — a soundness violation.
  if (flow_audit != nullptr) {
    for (const auto& [writer, reader] : flow_recorder.pairs()) {
      if (!value_flow->covers(writer, reader)) ++result.audit.vuln_flow;
    }
    support::metrics().advisory("vulnflow.audit_violations")
        .inc(result.audit.vuln_flow);
  }

  // ---- step (4): static vulnerability analysis (Algorithm 1) ----
  struct PendingAttack {
    std::size_t report_index;
    vuln::ExploitReport exploit;
  };
  std::vector<PendingAttack> pending;
  stages.enter(PipelineStage::kVulnAnalysis, [&] {
    vuln::VulnerabilityAnalyzer::Options aopts;
    aopts.mode = options_.analyzer_mode;
    aopts.resolved_indirect = &module_static.resolved_calls;
    if (value_flow.has_value()) aopts.value_flow = &*value_flow;
    const vuln::VulnerabilityAnalyzer analyzer(*target.module, aopts);
    support::Budget budget(options_.stage_budgets.vuln_analysis);
    double analysis_seconds = 0.0;
    std::size_t failures = 0;
    std::string last_error;
    for (std::size_t r = 0; r < final_reports.size(); ++r) {
      if (out_of_budget(budget, counts, PipelineStage::kVulnAnalysis, r,
                        final_reports.size(), "reports unanalyzed")) {
        break;
      }
      const std::optional<std::string> error =
          stages.attempt_item(1, [&](unsigned) {
            const vuln::VulnAnalysis analysis =
                analyzer.analyze(final_reports[r]);
            analysis_seconds += analysis.stats.seconds;
            for (const vuln::ExploitReport& exploit : analysis.exploits) {
              result.exploits.push_back(exploit);
              pending.push_back({r, exploit});
            }
          });
      if (error.has_value()) {
        ++failures;
        last_error = *error;
      }
    }
    if (failures > 0) {
      record_failure(counts, PipelineStage::kVulnAnalysis,
                     FailureCause::kException,
                     str_format("%zu report(s) unanalyzable: %s", failures,
                                last_error.c_str()));
    }
    counts.vulnerability_reports = result.exploits.size();
    counts.avg_analysis_seconds =
        final_reports.empty()
            ? 0.0
            : analysis_seconds / static_cast<double>(final_reports.size());
    OWL_LOG(kInfo) << target.name << ": " << result.exploits.size()
                   << " vulnerability reports";
  });

  // ---- step (5): dynamic vulnerability verification ----
  if (options_.enable_vuln_verifier) {
    stages.enter(PipelineStage::kVulnVerification, [&] {
      const race::MachineFactory& factory =
          target.exploit_factory ? target.exploit_factory : target.factory;
      support::Budget budget(options_.stage_budgets.vuln_verification);
      std::size_t livelocked = 0;
      bool failure_recorded = false;
      for (std::size_t c = 0; c < pending.size(); ++c) {
        const PendingAttack& candidate = pending[c];
        if (out_of_budget(budget, counts, PipelineStage::kVulnVerification, c,
                          pending.size(), "exploit candidates unverified")) {
          break;
        }
        verify::VulnVerifyResult vr;
        const bool ran = stages.retry_item(
            PipelineStage::kVulnVerification, failure_recorded,
            [&](unsigned attempt) {
              verify::VulnVerifier::Options vopts;
              vopts.max_attempts = kVulnVerifierAttempts;
              vopts.base_seed =
                  retry.seed_for(target.seed * 104729 + 7, attempt);
              vopts.thread_order = target.thread_order;
              vopts.fault_injector = injector;
              vr = verify::VulnVerifier(vopts).verify(
                  candidate.exploit, factory,
                  &final_reports[candidate.report_index]);
            });
        if (!ran) continue;
        budget.charge_steps(vr.steps_spent);
        if (vr.livelocked) ++livelocked;
        if (!vr.site_reached) continue;
        ConcurrencyAttack attack;
        attack.program = target.name;
        attack.race = final_reports[candidate.report_index];
        attack.exploit = candidate.exploit;
        attack.verification = vr;
        result.attacks.push_back(std::move(attack));
      }
      if (livelocked > 0) {
        record_failure(counts, PipelineStage::kVulnVerification,
                       FailureCause::kLivelock,
                       str_format("%zu exploit session(s) livelocked",
                                  livelocked),
                       budget.steps_spent());
      }
      OWL_LOG(kInfo) << target.name << ": " << result.attacks.size()
                     << " attack candidates reached their site, "
                     << result.confirmed_attacks() << " realized";
    });
  }

  // ---- repair stage (optional, DESIGN.md §13) ----
  // Closes the loop on the confirmed races: synthesize candidate patches,
  // verify each by re-running the pipeline machinery above on the patched
  // module (race-freedom incl. --predict on, checker differential, output
  // equivalence), report the first winner. Nested verification pipelines
  // run with repair disabled — the stage never recurses. Degrades, never
  // dies, like every other stage.
  if (options_.repair.enabled) {
    counts.repair_ran = true;
    if (!stages.run(PipelineStage::kRepair, [&] {
          std::vector<race::RaceReport> confirmed;
          for (const race::RaceReport& report : final_reports) {
            if (report.verified) confirmed.push_back(report);
          }
          result.repair = repair::attempt_repair(target, options_,
                                                 module_static, confirmed);
        })) {
      result.repair.status = "unrepaired";
    }
    counts.repair_status = result.repair.status;
    counts.repair_candidates = result.repair.candidates_tried;
    OWL_LOG(kInfo) << target.name << ": repair " << result.repair.status
                   << " (" << result.repair.candidates_tried
                   << " candidate(s) tried)";
  }

  result.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Behavioral rollup into the global registry — the Table 2/3 column
  // cross-check the manifest snapshot carries. All counters: sums are
  // interleaving-independent, so jobs=N flushes identically to jobs=1.
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("pipeline.reports.raw").inc(counts.raw_reports);
  registry.counter("pipeline.adhoc_syncs").inc(counts.adhoc_syncs);
  registry.counter("pipeline.reports.after_annotation")
      .inc(counts.after_annotation);
  registry.counter("pipeline.reports.verifier_eliminated")
      .inc(counts.verifier_eliminated);
  registry.counter("pipeline.reports.verified").inc(counts.remaining);
  registry.counter("pipeline.vulnerability_reports")
      .inc(counts.vulnerability_reports);
  registry.counter("pipeline.attacks.site_reached").inc(result.attacks.size());
  registry.counter("pipeline.attacks.confirmed")
      .inc(result.confirmed_attacks());
  registry.counter("pipeline.retries").inc(counts.retries_used);
  // Optional layers register their keys only when they ran, so the
  // snapshot stays byte-identical to builds without them when they are off.
  if (counts.checkers_ran) {
    registry.counter("pipeline.checker_findings")
        .inc(result.checker_findings.size());
  }
  if (counts.predict_ran) {
    registry.counter("predict.candidates").inc(counts.predict_candidates);
    registry.counter("predict.schedules_avoided")
        .inc(counts.predict_schedules_avoided);
    if (predict_outcome.has_value()) {
      registry.advisory("predict.closure_iterations")
          .inc(predict_outcome->closure_iterations);
    }
  }
  if (counts.repair_ran) {
    registry.counter("repair.candidates_tried").inc(counts.repair_candidates);
    registry.counter("repair.repaired")
        .inc(result.repair.status == "repaired" ? 1 : 0);
  }
  if (value_flow.has_value()) {
    const analysis::ValueFlowGraph::Stats& vf = value_flow->stats();
    registry.counter("valueflow.nodes").inc(vf.nodes);
    registry.counter("valueflow.edges").inc(vf.def_use_edges + vf.call_edges);
    registry.counter("valueflow.mem_edges").inc(vf.mem_edges);
  }
  registry.histogram("pipeline.raw_reports_per_target")
      .observe(counts.raw_reports);
  registry.counter("callgraph.indirect_resolved")
      .inc(module_static.indirect_resolved_edges);
  registry.counter("prescreen.prunable_instructions")
      .inc(module_static.prescreen.no_race().size());
  return result;
}

std::vector<PipelineResult> Pipeline::run_many(
    const std::vector<PipelineTarget>& targets) const {
  std::vector<PipelineResult> results(targets.size());
  // Per-target forks of the shared injector: each worker probes only its
  // own fork, so the firing sequence a target observes is a function of
  // that target alone — the load-bearing fact behind jobs=1 and jobs=N
  // producing identical results under fault injection.
  std::vector<std::unique_ptr<support::FaultInjector>> forks(targets.size());

  const auto run_one = [&](std::size_t index) {
    const PipelineTarget& target = targets[index];
    PipelineOptions local = options_;
    // Target-level parallelism already feeds the workers; nesting the
    // verifier's attempt sharding on top would oversubscribe.
    if (local.jobs != 1) local.verifier_pool = nullptr;
    if (options_.fault_injector != nullptr) {
      forks[index] = std::make_unique<support::FaultInjector>(
          options_.fault_injector->fork());
      local.fault_injector = forks[index].get();
    }
    try {
      results[index] = Pipeline(local).run(target);
    } catch (const std::exception& error) {
      // run() isolates its own stages; this catches failures outside them
      // (e.g. a throwing machine factory or a malformed module). The target
      // is reported degraded at the driver level and the run continues.
      PipelineResult failed;
      failed.target_name = target.name;
      record_failure(failed.counts, PipelineStage::kDriver,
                     FailureCause::kException, error.what());
      results[index] = std::move(failed);
    }
  };

  if (options_.jobs == 1 || targets.size() <= 1) {
    for (std::size_t i = 0; i < targets.size(); ++i) run_one(i);
  } else {
    support::ThreadPool pool(options_.jobs);
    pool.parallel_for(targets.size(), run_one);
  }

  // Merge fork accounting back in input order so events() reads as one
  // deterministic log no matter how execution interleaved.
  if (options_.fault_injector != nullptr) {
    for (const auto& fork : forks) {
      if (fork != nullptr) options_.fault_injector->absorb(*fork);
    }
  }
  return results;
}

std::string serialize_result(const PipelineResult& result) {
  std::string out = "=== target " + result.target_name + " ===\n";
  out += result.counts.serialize();
  out += result.store.canonical_dump();
  if (result.counts.checkers_ran) {
    out += str_format("[checker findings %zu]\n",
                      result.checker_findings.size());
    for (const checkers::BugReport& report : result.checker_findings) {
      out += report.to_string();
    }
  }
  if (result.counts.repair_ran) {
    // The patched module is folded in as a size + FNV-1a digest: repeat
    // runs and jobs=1-vs-N runs must synthesize byte-identical fixes, and
    // this pins that without dumping whole modules into the diff.
    std::uint64_t digest = 1469598103934665603ull;
    for (const char c : result.repair.patched_text) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ull;
    }
    out += str_format(
        "[repair status=%s strategy=%s lock=%s candidates=%u fixed=%s "
        "patched_bytes=%zu patched_fnv=%016llx]\n",
        result.repair.status.c_str(), result.repair.strategy.c_str(),
        result.repair.lock.c_str(), result.repair.candidates_tried,
        result.repair.fixed_module.c_str(),
        result.repair.patched_text.size(),
        static_cast<unsigned long long>(digest));
    for (const repair::RepairedRace& race : result.repair.races) {
      out += str_format("repair-race: %s %s <-> %s\n", race.object.c_str(),
                        race.first_loc.c_str(), race.second_loc.c_str());
    }
  }
  out += str_format("[exploits %zu]\n", result.exploits.size());
  for (const vuln::ExploitReport& exploit : result.exploits) {
    out += vuln::render_hint(exploit);
  }
  out += str_format("[attacks %zu, confirmed %zu]\n", result.attacks.size(),
                    result.confirmed_attacks());
  for (const ConcurrencyAttack& attack : result.attacks) {
    out += attack.to_string();
  }
  return out;
}

}  // namespace owl::core
