// Sync-preserving race prediction from a single observed trace
// (Mathur/Pavlogiannis/Viswanathan, PAPERS.md; DESIGN.md §12).
//
// Given the event traces the detection schedules already produced, the
// predictor decides for each candidate race pair (e1, e2) whether some
// *sync-preserving correct reordering* of the trace co-enables both events
// — without enumerating schedules. The decision is an ideal-closure
// computation: start from the po-prefixes of e1 and e2, close under
//   - reads-from: an included *steering* read (one whose value steers
//     control flow or an address) keeps its observed writer,
//   - lock semantics: of two included acquires of the same lock, the
//     trace-earlier one's release must be included,
//   - hb edges: an included acquire-side sync op keeps its observed
//     release-side source,
//   - thread order: a thread's first event needs its creator, a join needs
//     the joined thread's finish,
// and report infeasible exactly when the closure is forced to include e1,
// e2, or anything po-after them, or both racing threads hold a common lock
// at the reordering boundary. Restricting reads-from preservation to
// steering reads errs toward kFeasible: a data-only read can diverge from
// its observed value without making e2 unreachable, and over-approximating
// feasibility only costs verifier attempts — never a wrongly pruned race.
//
// Verdicts are per report *key* (race/report.hpp): a key is kInfeasible
// only when every dynamic occurrence across every trace closed with a
// contradiction and no enumeration cap truncated the search. Pairs on
// addresses no detector report touches, whose closure succeeds, become
// predicted-new candidates — races on objects the observed schedules
// missed entirely — synthesized as RaceReports for targeted replay
// confirmation. (Extra instruction pairs on an already-reported object are
// deliberately not synthesized: they would make --predict on diverge from
// exhaustive exploration on a schedule-count technicality.)
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "race/predict/trace_recorder.hpp"
#include "race/report.hpp"

namespace owl::ir {
class Module;
}  // namespace owl::ir

namespace owl::race::predict {

enum class Feasibility {
  kFeasible,    ///< some checked occurrence admits an SP reordering
  kInfeasible,  ///< every occurrence contradicts; safe to prune
  kUnknown,     ///< no occurrence seen, or the pair cap truncated the search
};

struct PredictOutcome {
  /// Verdict for every reduced report handed to analyze().
  std::unordered_map<ReportKey, Feasibility, ReportKeyHash> verdicts;
  /// SP-feasible candidates whose key no reduced report carries, sorted by
  /// report_order; each must still be confirmed by replay before surviving.
  std::vector<RaceReport> predicted_new;
  std::uint64_t candidates = 0;          ///< dynamic pairs SP-checked
  std::uint64_t closure_iterations = 0;  ///< closure work across all checks
  std::uint64_t infeasible_keys = 0;     ///< reduced keys proved infeasible

  Feasibility verdict_for(const ReportKey& key) const {
    const auto it = verdicts.find(key);
    return it != verdicts.end() ? it->second : Feasibility::kUnknown;
  }
};

class SpPredictor {
 public:
  struct Options {
    /// SP checks per report key per trace before the verdict degrades to
    /// kUnknown (never prune what was not exhaustively checked).
    std::size_t max_pairs_per_key = 8;
  };

  SpPredictor() = default;
  explicit SpPredictor(Options options) : options_(options) {}

  /// Analyzes every trace against the reduced report set. `module` feeds
  /// the steering-read analysis; when null every read is treated as
  /// steering (strictest closure — unit-test entry point).
  PredictOutcome analyze(const ir::Module* module,
                         const std::vector<Trace>& traces,
                         const std::vector<RaceReport>& reduced) const;

 private:
  Options options_;
};

}  // namespace owl::race::predict
