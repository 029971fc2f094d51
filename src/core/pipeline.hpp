// The OWL pipeline — Fig. 3 of the paper, end to end.
//
//  (1) a concurrency error detector (TSan / SKI mode) runs the program on
//      the given inputs and produces raw race reports;
//  (2) the static adhoc-synchronization detector classifies the reports,
//      annotates the busy-wait pairs, and the detector re-runs — pruning
//      benign schedules;
//  (3) the dynamic race verifier confirms which surviving reports are real
//      races, attaching §5.2 security hints;
//  (4) the static vulnerability analyzer (Algorithm 1) finds bug-to-attack
//      propagations and emits vulnerable input hints;
//  (5) the dynamic vulnerability verifier re-runs the program on the
//      vulnerable inputs and confirms which attacks are realizable.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkers/checker.hpp"
#include "core/attack.hpp"
#include "core/report_store.hpp"
#include "analysis/value_flow.hpp"
#include "race/predict/predict_mode.hpp"
#include "race/predict/trace_recorder.hpp"
#include "race/prescreen_view.hpp"
#include "race/ski_detector.hpp"
#include "repair/report.hpp"
#include "support/deadline.hpp"
#include "support/fault_injector.hpp"
#include "support/retry.hpp"
#include "support/thread_pool.hpp"
#include "verify/race_verifier.hpp"
#include "verify/vuln_verifier.hpp"
#include "vuln/analyzer.hpp"

namespace owl::core {

/// Runtime store→load dependence recorder for --vuln-flow audit; defined
/// in pipeline.cpp, attached to detection machines like the predict
/// stage's TraceRecorder (behavior-neutral observation).
class FlowAuditRecorder;

enum class DetectorKind {
  kTsan,       ///< happens-before races (applications)
  kSki,        ///< schedule exploration + watch lists (kernels)
  kAtomicity,  ///< unserializable interleavings (§8.3's CTrigger extension)
};

/// What the pipeline runs against. Workloads (src/workloads) produce these.
struct PipelineTarget {
  std::string name;                 ///< program name for reports
  const ir::Module* module = nullptr;
  /// Fresh machine configured with the *testing* inputs (detection runs).
  race::MachineFactory factory;
  /// Fresh machine configured with the *vulnerable* inputs inferred from
  /// the input hints (verification runs). Falls back to `factory` if unset.
  race::MachineFactory exploit_factory;
  /// Exploit-driver ordering hint for the vulnerability verifier.
  std::vector<interp::ThreadId> thread_order;
  /// Builds a machine factory for an *arbitrary* module — the repair
  /// stage's hook for running the full pipeline on patched clones (the
  /// shared_ptr keeps the clone alive inside the returned factory). Unset
  /// means repair cannot verify candidates and degrades for this target.
  std::function<race::MachineFactory(std::shared_ptr<const ir::Module>)>
      factory_for_module;
  DetectorKind detector = DetectorKind::kTsan;
  unsigned detection_schedules = 4;  ///< schedules explored in steps (1)/(2)
  std::uint64_t seed = 1;
};

/// Per-stage allowances for the Fig. 3 stages (unlimited by default).
/// Replaces the single Machine::max_steps cliff with stage-scoped budgets:
/// a stage that exhausts its allowance degrades (FailureRecord on the
/// target's StageCounts) instead of running unbounded.
struct StageBudgets {
  support::BudgetSpec detection;          ///< steps (1)+(2): detector runs
  support::BudgetSpec race_verification;  ///< step (3)
  support::BudgetSpec vuln_analysis;      ///< step (4)
  support::BudgetSpec vuln_verification;  ///< step (5)

  /// Applies one wall-clock deadline to every stage (CLI --stage-deadline).
  static StageBudgets uniform_wall(double seconds) {
    StageBudgets budgets;
    budgets.detection.wall_seconds = seconds;
    budgets.race_verification.wall_seconds = seconds;
    budgets.vuln_analysis.wall_seconds = seconds;
    budgets.vuln_verification.wall_seconds = seconds;
    return budgets;
  }
};

struct PipelineOptions {
  bool enable_adhoc_annotation = true;  ///< ablation knob (step 2)
  /// When set, step (2) applies these annotations instead of running OWL's
  /// report-guided classifier — the hook for plugging in a different
  /// adhoc-sync front end (e.g. the SyncFinder-like static scanner, used by
  /// bench/ext_syncfinder for the §5.1 precision comparison). Not owned.
  const race::AnnotationSet* preset_annotations = nullptr;
  /// Static may-race prescreen consulted by the detection substrate
  /// (DESIGN.md §9). kOff (default) skips nothing; kOn prunes shadow work
  /// for accesses the whole-module analysis proved race-free; kAudit runs
  /// full detection and counts pruned-but-raced soundness violations
  /// (PipelineResult::audit — must stay zero).
  race::PrescreenMode prescreen = race::PrescreenMode::kOff;
  /// Sync-preserving race prediction (DESIGN.md §12). kOff (default)
  /// changes nothing; kOn hands the race verifier only predicted-feasible
  /// candidates plus replay-confirmed predicted races the observed
  /// schedules never exhibited; kAudit keeps the exhaustive path and
  /// cross-checks the predictor's verdicts against what the verifier
  /// confirmed (PipelineResult::audit — must stay zero).
  race::PredictMode predict = race::PredictMode::kOff;
  /// Memory-aware value flow for Algorithm 1 (DESIGN.md §14). kOff
  /// (default) keeps the register-only walk, byte-identical everywhere;
  /// kOn builds the module value-flow graph and extends the walk across
  /// store→load may-alias edges; kAudit additionally records every
  /// runtime store→load dependence the detection schedules exhibit and
  /// cross-checks it against the static edge set (PipelineResult::audit —
  /// must stay zero).
  analysis::ValueFlowMode vuln_flow = analysis::ValueFlowMode::kOff;
  bool enable_race_verifier = true;     ///< off for kernels (paper §8.3)
  bool enable_vuln_verifier = true;
  unsigned race_verifier_attempts = 3;
  vuln::VulnerabilityAnalyzer::Mode analyzer_mode =
      vuln::VulnerabilityAnalyzer::Mode::kDirected;
  /// Concurrency checker suite beyond data races (DESIGN.md §11): deadlock,
  /// atomicity, lock-mismatch, condition-variable misuse. All off by
  /// default — with every checker off the pipeline's output is
  /// byte-identical to a build without the suite.
  checkers::CheckerOptions checkers;
  /// Automated race repair (DESIGN.md §13). Off by default — with repair
  /// off every output is byte-identical to a build without the stage. The
  /// stage never enables itself recursively: verification pipelines the
  /// repair engine spawns run with this reset to the default.
  repair::RepairOptions repair;

  // --- resilience layer ---
  StageBudgets stage_budgets;          ///< per-stage deadlines/step budgets
  /// Retry policy for the schedule-dependent stages (detection re-runs,
  /// racing-moment capture, vulnerability verification): seed rotation +
  /// exponential budget growth per retry.
  support::RetryPolicy retry;
  /// Deterministic fault-injection harness; null disables injection. Not
  /// owned; must outlive the pipeline run.
  support::FaultInjector* fault_injector = nullptr;

  // --- parallel execution ---
  /// Worker threads for run_many's target fan-out: 1 = in-caller
  /// sequential loop, 0 = hardware_concurrency, N = a pool of N. Results
  /// are byte-identical for every value — each target's schedules derive
  /// from its own seed (splittable support::Rng streams, see DESIGN.md),
  /// results are collected in input order, and fault injection forks per
  /// target — so jobs changes wall-clock only.
  unsigned jobs = 1;
  /// Shards the race verifier's schedule-exploration attempts across this
  /// pool (not owned; null disables). Applies to Pipeline::run; run_many
  /// does not forward it to its workers (target-level parallelism already
  /// saturates the pool, and two nested fan-outs oversubscribe).
  support::ThreadPool* verifier_pool = nullptr;
};

/// Soundness violations the audit modes counted on one target (each zero
/// unless its mode is kAudit). The advisory counters
/// prescreen/predict/vulnflow.audit_violations carry the same numbers.
struct AuditCounts {
  std::uint64_t prescreen = 0;  ///< pruned-but-raced accesses
  std::uint64_t predict = 0;    ///< verified races the SP-closure pruned
  std::uint64_t vuln_flow = 0;  ///< runtime store→load pairs the graph lacks
};

struct PipelineResult {
  std::string target_name;
  StageCounts counts;
  ReportStore store;
  /// Vulnerability reports (vulnerable input hints) per surviving race.
  std::vector<vuln::ExploitReport> exploits;
  /// Exploits whose site the dynamic verifier reached.
  std::vector<ConcurrencyAttack> attacks;
  /// Checker-suite findings (empty unless checkers were enabled), sorted
  /// into BugReportMgr's deterministic order.
  std::vector<checkers::BugReport> checker_findings;
  /// Repair-stage outcome (status empty unless the stage ran).
  repair::RepairReport repair;
  /// Audit-mode soundness violations; any nonzero count exits 3.
  AuditCounts audit;
  double total_seconds = 0.0;

  /// Attacks with a realized security consequence.
  std::size_t confirmed_attacks() const noexcept;
  /// One or more stages degraded (see counts.failures).
  bool degraded() const noexcept { return counts.degraded(); }
};

class Pipeline {
 public:
  Pipeline() : Pipeline(PipelineOptions{}) {}
  explicit Pipeline(PipelineOptions options) : options_(std::move(options)) {}

  /// Runs the five Fig. 3 stages on one target. Throws only when the
  /// target has no module: a stage failure (exception, livelock, stall,
  /// budget exhaustion) is retried per the RetryPolicy where that makes
  /// sense, then absorbed as a FailureRecord on the result's StageCounts
  /// and the remaining stages run on best-effort inputs.
  PipelineResult run(const PipelineTarget& target) const;

  /// Multi-target driver with per-target fault isolation: one result per
  /// target in input order; a target that fails catastrophically (even
  /// outside run()'s own isolation, e.g. a throwing machine factory)
  /// yields a driver-stage FailureRecord instead of sinking the whole run.
  ///
  /// Targets execute on `options().jobs` workers. Results are identical
  /// for any jobs value: every target is self-contained (own seed, own
  /// module, own machines), each worker runs against a per-target fork of
  /// the fault injector (forks are absorbed back in input order), and
  /// results land in pre-assigned slots. Note the fork semantics: a
  /// FaultPlan's `count`/dilution state is scoped per target here, even
  /// with jobs=1 — target-scoped plans (the common case) are unaffected.
  std::vector<PipelineResult> run_many(
      const std::vector<PipelineTarget>& targets) const;

  const PipelineOptions& options() const noexcept { return options_; }

 private:
  /// Steps (1)/(2): run the configured detector over N schedules under the
  /// detection budget, retrying per policy on a thrown fault. Failures and
  /// prescreen audit violations are recorded on `result`; nullopt means
  /// every attempt failed (the caller picks the fallback: empty for step
  /// (1), the raw reports for step (2)).
  /// `recorder`, when non-null, captures each schedule's event trace for
  /// the predict stage (only the final pass's traces are kept).
  std::optional<std::vector<race::RaceReport>> detect(
      const PipelineTarget& target, const race::AnnotationSet* annotations,
      race::PrescreenView prescreen, PipelineResult& result,
      race::predict::TraceRecorder* recorder,
      FlowAuditRecorder* flow_audit) const;

  /// One detection pass (no retry wrapper); throws on detector faults.
  std::vector<race::RaceReport> detect_once(
      const PipelineTarget& target, const race::AnnotationSet* annotations,
      race::PrescreenView prescreen, std::uint64_t base_seed,
      support::Budget& budget, PipelineResult& result,
      race::predict::TraceRecorder* recorder,
      FlowAuditRecorder* flow_audit) const;

  PipelineOptions options_;
};

/// Canonical, deterministic text form of a result for differential
/// comparison (tests/parallel_equivalence_test.cpp, scripts/ci.sh's
/// jobs=1-vs-jobs=4 gate). Includes everything behavioral — counts,
/// failure records, every stage's reports, exploit hints, attacks —
/// and excludes the wall-clock fields (total_seconds,
/// avg_analysis_seconds), which vary run to run even when behavior is
/// identical.
std::string serialize_result(const PipelineResult& result);

}  // namespace owl::core
