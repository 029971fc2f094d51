// Structured outcome of the automated race-repair stage (DESIGN.md §13).
//
// Deliberately free of core/ includes: core/pipeline.hpp embeds these types
// in PipelineResult, while the repair engine itself depends on the full
// pipeline — keeping this header leaf-level breaks the cycle. Everything
// here is plain data; rendering lives in core/render (human text, shared
// with owl_served) and repair/engine (JSON file form).
#pragma once

#include <string>
#include <vector>

namespace owl::repair {

/// The candidate-synthesis strategies, in the planner's preference order.
enum class Strategy {
  kLockReuse,   ///< guard with a lock already protecting the object elsewhere
  kRelocate,    ///< move the main-thread access past the joins (MHP permits)
  kLockInsert,  ///< guard with a fresh module-level mutex
};

std::string_view strategy_name(Strategy strategy) noexcept;

/// One repaired race, identified portably across modules (instruction ids
/// differ between the original and the patched clone; source locations and
/// the object name do not).
struct RepairedRace {
  std::string object;      ///< racy variable ("balance", ...)
  std::string first_loc;   ///< "file:line" of the first access
  std::string second_loc;  ///< "file:line" of the second access
};

/// Post-mortem for one planned candidate: which verification gate (or the
/// patch application itself) eliminated it. `killed_by` is one of
/// "apply_failed", "output_equal", "no_new_findings", "race_free", or ""
/// for the winning candidate.
struct CandidateOutcome {
  std::string strategy;
  std::string lock;  ///< guard mutex name ("" for relocate)
  std::string killed_by;
};

struct RepairReport {
  /// "repaired" | "unrepaired" | "no_races" ("" when the stage never ran).
  std::string status;
  std::string strategy;  ///< winning strategy name ("" unless repaired)
  std::string lock;      ///< guard mutex name ("" for relocate)
  unsigned candidates_tried = 0;
  /// Basename of the emitted module ("<stem>_fixed.mir"); recorded even
  /// when nothing is written, so CLI and serve render identically.
  std::string fixed_module;
  /// Verification-gate verdicts for the winning candidate (all false when
  /// nothing passed).
  bool gate_race_free = false;     ///< zero races, incl. under --predict on
  bool gate_no_new_findings = false;  ///< checker-suite differential clean
  bool gate_output_equal = false;     ///< observable output byte-identical
  std::vector<RepairedRace> races;    ///< the confirmed races being repaired
  /// One entry per candidate in planner order; the winner (if any) is the
  /// last entry and carries an empty killed_by.
  std::vector<CandidateOutcome> candidates;
  /// Canonical text of the patched module ("" unless repaired). owl_cli
  /// writes it to its --repair DIR; serialize/render never include it
  /// wholesale.
  std::string patched_text;
};

}  // namespace owl::repair
