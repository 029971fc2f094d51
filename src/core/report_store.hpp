// Stage-by-stage report accounting — the numbers behind the paper's
// Table 3 (reduction) and Table 2 (detection results).
#pragma once

#include <string>
#include <vector>

#include "race/report.hpp"
#include "support/failure.hpp"

namespace owl::core {

/// Snapshot labels along the Fig. 3 pipeline.
enum class Stage {
  kRawDetection,      ///< detector output before any reduction (R.R.)
  kAfterAnnotation,   ///< re-run with adhoc-sync annotations applied
  kAfterRaceVerifier, ///< reports confirmed "in the racing moment" (R.)
};

/// Table 3's row for one program.
struct StageCounts {
  std::size_t raw_reports = 0;          ///< R.R.
  std::size_t adhoc_syncs = 0;          ///< A.S. (unique annotated pairs)
  std::size_t after_annotation = 0;
  std::size_t verifier_eliminated = 0;  ///< R.V.E.
  std::size_t remaining = 0;            ///< R.
  double avg_analysis_seconds = 0.0;    ///< A.C. per report
  std::size_t vulnerability_reports = 0;///< OWL's final reports (Table 2)

  // --- checker suite (DESIGN.md §11) ---
  /// Findings from the optional concurrency checker stage. Serialized
  /// only when `checkers_ran` — the counters line stays byte-identical
  /// to pre-suite output whenever the checkers are off.
  std::size_t checker_findings = 0;
  bool checkers_ran = false;

  // --- sync-preserving prediction (DESIGN.md §12) ---
  /// Serialized only when `predict_ran`; off-mode output stays
  /// byte-identical to pre-predictor builds.
  std::size_t predict_candidates = 0;        ///< dynamic pairs SP-checked
  std::size_t predict_pruned = 0;            ///< reports proved infeasible
  std::size_t predict_new_confirmed = 0;     ///< predicted races replay kept
  std::size_t predict_schedules_avoided = 0; ///< verifier attempts not run
  bool predict_ran = false;

  // --- automated race repair (DESIGN.md §13) ---
  /// Serialized only when `repair_ran`; off-mode output stays
  /// byte-identical to pre-repair builds.
  std::string repair_status;            ///< repaired | unrepaired | no_races
  std::size_t repair_candidates = 0;    ///< candidates synthesized and tried
  bool repair_ran = false;

  // --- resilience accounting (Table 2/3's resilience column) ---
  /// Stage failures absorbed by the resilience layer. Non-empty means the
  /// row's numbers are best-effort under degradation, not a crash.
  std::vector<support::FailureRecord> failures;
  /// Retries consumed by the schedule-dependent stages.
  unsigned retries_used = 0;

  bool degraded() const noexcept { return !failures.empty(); }
  /// "ok" or "degraded(stage:cause,...)" for table cells.
  std::string resilience_summary() const {
    return support::failure_summary(failures);
  }

  /// Canonical text form for differential comparison: every behavioral
  /// counter and failure record, but no wall-clock field
  /// (avg_analysis_seconds) — it varies run to run even when behavior is
  /// identical.
  std::string serialize() const;

  /// Fraction of raw reports pruned before vulnerability analysis.
  double reduction_ratio() const noexcept {
    if (raw_reports == 0) return 0.0;
    const std::size_t kept = remaining < raw_reports ? remaining : raw_reports;
    return 1.0 - static_cast<double>(kept) / static_cast<double>(raw_reports);
  }
};

/// Holds the report vectors at each pipeline stage.
class ReportStore {
 public:
  void set_stage(Stage stage, std::vector<race::RaceReport> reports);
  /// Reports recorded at `stage`; an unrecorded stage yields an empty
  /// vector (a degraded pipeline may legally skip stages, so reading one
  /// must not be a crash vector).
  const std::vector<race::RaceReport>& stage(Stage stage) const;
  bool has_stage(Stage stage) const noexcept;

  /// Renders one stage for logs/benches.
  std::string render_stage(Stage stage, ir::NameTable& names) const;

  /// Deterministic dump of every recorded stage, for differential
  /// comparison of pipeline runs (report rendering is id/name-based —
  /// no pointers, no timestamps).
  std::string canonical_dump(ir::NameTable& names) const;

 private:
  static constexpr std::size_t index_of(Stage stage) noexcept {
    return static_cast<std::size_t>(stage);
  }
  std::vector<race::RaceReport> stages_[3];
  bool present_[3] = {false, false, false};
};

}  // namespace owl::core
