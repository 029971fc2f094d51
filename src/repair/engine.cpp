#include "repair/engine.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "checkers/checker.hpp"
#include "interp/machine.hpp"
#include "ir/printer.hpp"
#include "ir/transform.hpp"
#include "repair/planner.hpp"
#include "support/strings.hpp"

namespace owl::repair {
namespace {

/// What gate C compares: the kPrint stream plus how the run ended. Final
/// memory is deliberately NOT compared — a correct fix may well change it
/// (that racy lost update was the bug), but everything the workload
/// *observably emitted* must be preserved.
struct OutputSignature {
  std::vector<interp::Word> prints;
  interp::StopReason reason = interp::StopReason::kAllFinished;
};

OutputSignature run_round_robin(const interp::MachineFactory& factory) {
  std::unique_ptr<interp::Machine> machine = factory();
  interp::RoundRobinScheduler scheduler;
  OutputSignature signature;
  signature.reason = machine->run(scheduler).reason;
  signature.prints = machine->prints();
  return signature;
}

/// Clones the original and applies one candidate. `lock_name` comes back
/// as the mutex actually used (lock_insert may rename on collision).
/// Returns nullptr when any edit fails to apply.
std::shared_ptr<ir::Module> apply_candidate(const ir::Module& original,
                                            const RepairCandidate& candidate,
                                            std::string& lock_name) {
  std::shared_ptr<ir::Module> patched = ir::clone_module(original);
  if (patched == nullptr) return nullptr;
  if (!candidate.guards.empty()) {
    lock_name = candidate.lock;
    if (candidate.strategy == Strategy::kLockInsert) {
      lock_name = ir::add_mutex_global(*patched, candidate.lock)->name();
    }
    // Bottom-up within each block: narrowing can emit several spans per
    // block, and guarding a later span first keeps the earlier spans'
    // indices valid (insertions above an index never shift it).
    std::vector<GuardSpan> guards = candidate.guards;
    std::sort(guards.begin(), guards.end(),
              [](const GuardSpan& a, const GuardSpan& b) {
                if (a.first.function != b.first.function) {
                  return a.first.function < b.first.function;
                }
                if (a.first.block != b.first.block) {
                  return a.first.block < b.first.block;
                }
                return a.first.index > b.first.index;
              });
    for (const GuardSpan& span : guards) {
      if (!ir::guard_range(*patched, span.first, span.last_index,
                           lock_name)) {
        return nullptr;
      }
    }
  }
  // Highest index first, so an earlier move cannot shift a later move's
  // source coordinate within the same block.
  std::vector<MoveEdit> moves = candidate.moves;
  std::sort(moves.begin(), moves.end(),
            [](const MoveEdit& a, const MoveEdit& b) {
              if (a.from.function != b.from.function) {
                return a.from.function < b.from.function;
              }
              if (a.from.block != b.from.block) {
                return a.from.block < b.from.block;
              }
              return a.from.index > b.from.index;
            });
  for (const MoveEdit& move : moves) {
    if (!ir::move_after(*patched, move.from, move.after)) return nullptr;
  }
  return patched;
}

/// Gate C. The original signature is computed once by the caller.
bool gate_output_equal(const OutputSignature& original,
                       const interp::MachineFactory& patched_factory) {
  const OutputSignature patched = run_round_robin(patched_factory);
  if (patched.reason != interp::StopReason::kAllFinished) return false;
  if (original.reason != interp::StopReason::kAllFinished) return false;
  if (patched.prints != original.prints) return false;
  // Deadlock smoke beyond the deterministic schedule: a guard that can
  // deadlock usually does so within a few random preemption patterns.
  for (const std::uint64_t seed : {2ull, 3ull, 5ull}) {
    std::unique_ptr<interp::Machine> machine = patched_factory();
    interp::RandomScheduler scheduler(seed);
    if (machine->run(scheduler).reason == interp::StopReason::kDeadlock) {
      return false;
    }
  }
  return true;
}

/// Gate B. `baseline` holds the sort_keys of the original module's
/// findings under the full checker suite.
bool gate_no_new_findings(const std::set<std::string>& baseline,
                          const ir::Module& patched,
                          const interp::MachineFactory& patched_factory) {
  const analysis::ModuleStatic patched_static(patched);
  const checkers::AnalysisContext ctx(patched, patched_static,
                                      patched_factory);
  checkers::CheckerOptions all;
  all.deadlock = all.atomicity = all.lock_mismatch = all.condvar = true;
  for (const checkers::BugReport& finding : checkers::run_checkers(all, ctx)) {
    if (baseline.count(finding.sort_key()) == 0) return false;
  }
  return true;
}

/// Gate A. Runs the Fig. 3 stages on the patched module with the session's
/// detector configuration, in both predict modes; zero races must remain
/// and the verification run itself must not degrade (a degraded run proves
/// nothing).
bool gate_race_free(const core::PipelineTarget& target,
                    const core::PipelineOptions& session,
                    const std::shared_ptr<ir::Module>& patched,
                    const interp::MachineFactory& patched_factory) {
  for (const race::PredictMode mode :
       {race::PredictMode::kOff, race::PredictMode::kOn}) {
    core::PipelineOptions options;
    options.enable_adhoc_annotation = session.enable_adhoc_annotation;
    options.predict = mode;
    options.enable_race_verifier = true;
    options.enable_vuln_verifier = false;
    options.retry = session.retry;
    // Everything else stays at defaults on purpose: no prescreen, no
    // checkers, no repair (recursion guard), no fault injector, no
    // manifest, unlimited budgets (a wall-clock budget would make the
    // verdict time-dependent), jobs=1.
    core::PipelineTarget verify;
    verify.name = target.name + "#repair-verify";
    verify.module = patched.get();
    verify.factory = patched_factory;
    verify.exploit_factory = patched_factory;
    verify.detector = target.detector;
    verify.detection_schedules = target.detection_schedules;
    verify.seed = target.seed;
    const core::PipelineResult result = core::Pipeline(options).run(verify);
    if (result.counts.remaining != 0 || result.degraded()) return false;
  }
  return true;
}

}  // namespace

std::string fixed_module_name(const std::string& target_name) {
  std::string stem = target_name;
  if (const std::size_t slash = stem.find_last_of('/');
      slash != std::string::npos) {
    stem.erase(0, slash + 1);
  }
  if (ends_with(stem, ".mir")) stem.erase(stem.size() - 4);
  return stem + "_fixed.mir";
}

RepairReport attempt_repair(const core::PipelineTarget& target,
                            const core::PipelineOptions& session,
                            const analysis::ModuleStatic& statics,
                            const std::vector<race::RaceReport>& confirmed) {
  RepairReport report;
  for (const race::RaceReport& race : confirmed) {
    RepairedRace repaired;
    repaired.object = race.object_name;
    repaired.first_loc = race.first.instr != nullptr
                             ? race.first.instr->loc().to_string()
                             : "<?>";
    repaired.second_loc = race.second.instr != nullptr
                              ? race.second.instr->loc().to_string()
                              : "<?>";
    report.races.push_back(std::move(repaired));
  }
  if (confirmed.empty()) {
    report.status = "no_races";
    return report;
  }
  if (!target.factory_for_module) {
    throw std::runtime_error(
        "repair needs a module-factory hook (PipelineTarget::"
        "factory_for_module unset)");
  }

  const OutputSignature original_signature = run_round_robin(target.factory);
  std::set<std::string> baseline;
  {
    checkers::CheckerOptions all;
    all.deadlock = all.atomicity = all.lock_mismatch = all.condvar = true;
    const checkers::AnalysisContext ctx(*target.module, statics,
                                        target.factory);
    for (const checkers::BugReport& finding :
         checkers::run_checkers(all, ctx)) {
      baseline.insert(finding.sort_key());
    }
  }

  const RepairPlanner planner(*target.module, statics);
  for (const RepairCandidate& candidate : planner.plan(confirmed)) {
    ++report.candidates_tried;
    CandidateOutcome outcome;
    outcome.strategy = std::string(strategy_name(candidate.strategy));
    outcome.lock = candidate.lock;
    std::string lock_name;
    const std::shared_ptr<ir::Module> patched =
        apply_candidate(*target.module, candidate, lock_name);
    if (patched == nullptr) {
      outcome.killed_by = "apply_failed";
      report.candidates.push_back(std::move(outcome));
      continue;
    }
    outcome.lock = lock_name;
    const interp::MachineFactory patched_factory =
        target.factory_for_module(patched);
    // Cheapest gate first; all three must pass.
    if (!gate_output_equal(original_signature, patched_factory)) {
      outcome.killed_by = "output_equal";
      report.candidates.push_back(std::move(outcome));
      continue;
    }
    if (!gate_no_new_findings(baseline, *patched, patched_factory)) {
      outcome.killed_by = "no_new_findings";
      report.candidates.push_back(std::move(outcome));
      continue;
    }
    if (!gate_race_free(target, session, patched, patched_factory)) {
      outcome.killed_by = "race_free";
      report.candidates.push_back(std::move(outcome));
      continue;
    }
    report.candidates.push_back(std::move(outcome));
    report.status = "repaired";
    report.strategy = std::string(strategy_name(candidate.strategy));
    report.lock = lock_name;
    report.fixed_module = fixed_module_name(target.name);
    report.gate_race_free = true;
    report.gate_no_new_findings = true;
    report.gate_output_equal = true;
    report.patched_text = ir::print_module(*patched);
    return report;
  }
  report.status = "unrepaired";
  return report;
}

std::string render_repair_json(const RepairReport& report,
                               const std::string& target_name) {
  std::string out = "{\n";
  out += " \"schema\":\"owl-repair-v1\",\n";
  out += " \"target\":" + json_quote(target_name) + ",\n";
  out += " \"status\":" + json_quote(report.status) + ",\n";
  out += " \"strategy\":" + json_quote(report.strategy) + ",\n";
  out += " \"lock\":" + json_quote(report.lock) + ",\n";
  out += str_format(" \"candidates_tried\":%u,\n", report.candidates_tried);
  out += " \"fixed_module\":" + json_quote(report.fixed_module) + ",\n";
  out += str_format(
      " \"gates\":{\"race_free\":%s,\"no_new_findings\":%s,"
      "\"output_equal\":%s},\n",
      report.gate_race_free ? "true" : "false",
      report.gate_no_new_findings ? "true" : "false",
      report.gate_output_equal ? "true" : "false");
  out += " \"candidates\":[";
  for (std::size_t i = 0; i < report.candidates.size(); ++i) {
    const CandidateOutcome& candidate = report.candidates[i];
    if (i != 0) out += ",";
    out += "\n  {\"strategy\":" + json_quote(candidate.strategy) +
           ",\"lock\":" + json_quote(candidate.lock) +
           ",\"killed_by\":" + json_quote(candidate.killed_by) + "}";
  }
  out += report.candidates.empty() ? "],\n" : "\n ],\n";
  out += " \"races\":[";
  for (std::size_t i = 0; i < report.races.size(); ++i) {
    const RepairedRace& race = report.races[i];
    if (i != 0) out += ",";
    out += "\n  {\"object\":" + json_quote(race.object) +
           ",\"first\":" + json_quote(race.first_loc) +
           ",\"second\":" + json_quote(race.second_loc) + "}";
  }
  out += report.races.empty() ? "]\n" : "\n ]\n";
  out += "}\n";
  return out;
}

}  // namespace owl::repair
