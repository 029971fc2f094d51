#include "verify/race_verifier.hpp"

#include <vector>

#include "interp/debugger.hpp"
#include "race/atomicity_detector.hpp"
#include "ir/printer.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace owl::verify {
namespace {

/// Operand index holding the memory address a racing instruction is about
/// to touch; SIZE_MAX for instructions without one.
std::size_t address_operand(const ir::Instruction* instr) noexcept {
  switch (instr->opcode()) {
    case ir::Opcode::kLoad:
    case ir::Opcode::kAtomicRMWAdd:
    case ir::Opcode::kStrCpy:
    case ir::Opcode::kMemCopy:
      return 0;
    case ir::Opcode::kStore:
      return 1;
    default:
      return SIZE_MAX;
  }
}

}  // namespace

RaceVerifyResult RaceVerifier::explore(
    race::RaceReport& report,
    const std::function<AttemptOutcome(unsigned)>& attempt) const {
  TRACE_SPAN("race-verify-report", "explore");
  RaceVerifyResult result;
  bool any_livelock = false;
  // Folds one attempt's outcome into the result; returns true when the
  // exploration must stop (the attempt verified the race).
  const auto fold = [&](const AttemptOutcome& out) {
    ++result.attempts;
    result.steps_spent += out.steps;
    result.livelock_releases += out.livelock_releases;
    if (out.livelocked) any_livelock = true;
    if (out.verified) {
      result.verified = true;
      result.value_about_to_read = out.value_about_to_read;
      result.value_about_to_write = out.value_about_to_write;
      result.writes_null = out.writes_null;
      result.variable_type = out.variable_type;
      result.security_hint = out.security_hint;
      report.verified = true;
      report.security_hint = out.security_hint;
    }
    return out.verified;
  };

  if (can_shard()) {
    // Every attempt runs concurrently (each is an independent machine +
    // scheduler seed), then the fold walks them in attempt order: the
    // accounting and the winning attempt are exactly what the sequential
    // loop would have produced — attempts past the first verified one
    // are wasted wall-clock, never a behavioral difference.
    std::vector<AttemptOutcome> outcomes(options_.max_attempts);
    options_.pool->parallel_for(
        options_.max_attempts, [&](std::size_t index) {
          outcomes[index] = attempt(static_cast<unsigned>(index));
        });
    for (const AttemptOutcome& out : outcomes) {
      if (fold(out)) break;
    }
  } else {
    for (unsigned index = 0; index < options_.max_attempts; ++index) {
      if (fold(attempt(index))) break;
    }
  }
  result.livelocked = any_livelock && !result.verified;
  // Metrics flush from the *folded* result, never from raw attempt
  // executions: the pool-sharded path runs every attempt but folds in
  // attempt order, so these sums stay byte-identical across jobs values.
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("race_verifier.reports").inc();
  registry.counter("race_verifier.attempts").inc(result.attempts);
  registry.counter("race_verifier.livelock_releases")
      .inc(result.livelock_releases);
  if (result.verified) registry.counter("race_verifier.verified").inc();
  if (result.livelocked) registry.counter("race_verifier.livelocked").inc();
  return result;
}

RaceVerifyResult RaceVerifier::verify(race::RaceReport& report,
                                      const race::MachineFactory& factory) const {
  const race::AccessRecord& a = report.first;
  const race::AccessRecord& b = report.second;
  if (a.instr == nullptr || b.instr == nullptr) return RaceVerifyResult{};

  if (report.kind == race::ReportKind::kAtomicityViolation) {
    return verify_atomicity(report, factory);
  }
  return explore(report, [&](unsigned attempt) {
    return run_attempt(report, factory, attempt);
  });
}

RaceVerifier::AttemptOutcome RaceVerifier::run_attempt(
    const race::RaceReport& report, const race::MachineFactory& factory,
    unsigned attempt) const {
  AttemptOutcome out;
  const race::AccessRecord& a = report.first;
  const race::AccessRecord& b = report.second;

  std::unique_ptr<interp::Machine> machine = factory();
  interp::Debugger debugger;
  machine->set_debugger(&debugger);
  machine->set_fault_injector(options_.fault_injector);

  // Thread-specific breakpoints right at the racing instructions.
  const interp::BreakpointId bp_a = debugger.add_breakpoint(a.instr, a.tid);
  const interp::BreakpointId bp_b = debugger.add_breakpoint(b.instr, b.tid);

  interp::RandomScheduler scheduler(options_.base_seed + attempt);
  bool suspended_a = false;
  bool suspended_b = false;
  bool done = false;
  std::uint64_t releases = 0;
  std::uint64_t iterations = 0;
  std::uint64_t last_steps = 0;

  while (!done) {
    if (++iterations > options_.watchdog_iterations) {
      // Watchdog: the session is cycling between break and release with
      // no hope of progress (e.g. an injected breakpoint livelock).
      out.livelocked = true;
      break;
    }
    const interp::RunResult run = machine->run(scheduler);
    out.steps += run.steps - last_steps;
    last_steps = run.steps;
    switch (run.reason) {
      case interp::StopReason::kBreakpoint: {
        if (run.break_id == bp_a) suspended_a = true;
        if (run.break_id == bp_b) suspended_b = true;
        if (suspended_a && suspended_b) {
          // Both threads parked: are they about to touch the same cell?
          const std::size_t ia = address_operand(a.instr);
          const std::size_t ib = address_operand(b.instr);
          if (ia == SIZE_MAX || ib == SIZE_MAX) {
            done = true;
            break;
          }
          const auto addr_a = static_cast<interp::Address>(
              machine->eval_in_thread(a.tid, a.instr->operand(ia)));
          const auto addr_b = static_cast<interp::Address>(
              machine->eval_in_thread(b.tid, b.instr->operand(ib)));
          if (addr_a == addr_b && addr_a != 0) {
            // The racing moment. Extract §5.2 security hints.
            out.verified = true;
            const race::AccessRecord& writer = a.is_write ? a : b;
            const race::AccessRecord& reader = a.is_write ? b : a;
            out.value_about_to_read = machine->memory().load_raw(addr_a);
            if (writer.instr->opcode() == ir::Opcode::kStore) {
              out.value_about_to_write = machine->eval_in_thread(
                  writer.tid, writer.instr->operand(0));
            }
            out.writes_null = out.value_about_to_write == 0 && writer.is_write;
            const interp::MemObject* obj =
                machine->memory().find_object(addr_a);
            out.variable_type =
                std::string(reader.instr != nullptr
                                ? reader.instr->type().name()
                                : "i64");
            out.security_hint = str_format(
                "racing pair verified on %s: about to read %lld, about to "
                "write %lld (type %s)%s",
                obj != nullptr && !obj->name.empty() ? obj->name.c_str()
                                                      : "<anonymous>",
                static_cast<long long>(out.value_about_to_read),
                static_cast<long long>(out.value_about_to_write),
                out.variable_type.c_str(),
                out.writes_null ? " — NULL write: potential NULL "
                                  "pointer dereference"
                                : "");
            done = true;
            break;
          }
          // Same instructions, different cells (per-element accesses):
          // release one side and keep hunting within this attempt.
          (void)machine->resume_thread(a.tid, /*skip_breakpoint_once=*/true);
          suspended_a = false;
        }
        break;
      }
      case interp::StopReason::kAllSuspended:
        // Livelock: the threads everyone waits on are the suspended ones.
        // Temporarily release one triggered breakpoint (§5.2) — but only
        // `livelock_release_after` times per attempt; past that the
        // attempt is declared livelocked and a fresh seed is tried.
        if (releases >= options_.livelock_release_after) {
          out.livelocked = true;
          done = true;
          break;
        }
        if (suspended_a) {
          ++releases;
          ++out.livelock_releases;
          (void)machine->resume_thread(a.tid, true);
          suspended_a = false;
        } else if (suspended_b) {
          ++releases;
          ++out.livelock_releases;
          (void)machine->resume_thread(b.tid, true);
          suspended_b = false;
        } else {
          done = true;
        }
        break;
      case interp::StopReason::kAllFinished:
      case interp::StopReason::kDeadlock:
      case interp::StopReason::kStepBudget:
        done = true;
        break;
    }
  }
  return out;
}

RaceVerifyResult RaceVerifier::verify_atomicity(
    race::RaceReport& report, const race::MachineFactory& factory) const {
  // Atomicity triples may be lock-protected access by access, so parking
  // one side would deadlock rather than expose a racing moment. Verify the
  // CTrigger way instead: re-run under fresh schedules and confirm the
  // same unserializable triple re-manifests.
  return explore(report, [&](unsigned attempt) {
    return run_atomicity_attempt(report, factory, attempt);
  });
}

RaceVerifier::AttemptOutcome RaceVerifier::run_atomicity_attempt(
    const race::RaceReport& report, const race::MachineFactory& factory,
    unsigned attempt) const {
  AttemptOutcome out;
  const auto want = report.key();
  std::unique_ptr<interp::Machine> machine = factory();
  machine->set_fault_injector(options_.fault_injector);
  race::AtomicityDetector detector;
  machine->add_observer(&detector);
  interp::RandomScheduler scheduler(options_.base_seed + 31 * attempt + 5);
  const interp::RunResult run = machine->run(scheduler);
  out.steps = run.steps;
  for (const race::AtomicityReport& found : detector.reports()) {
    if (found.race_key() != want) continue;
    out.verified = true;
    if (const race::AccessRecord* read = found.corrupted_read()) {
      out.value_about_to_read = read->value;
      out.variable_type =
          read->instr != nullptr ? std::string(read->instr->type().name())
                                 : std::string("i64");
    }
    out.value_about_to_write = found.remote.value;
    out.security_hint = str_format(
        "atomicity violation reproduced (%s on %s): stale local value "
        "%lld, remote wrote %lld",
        std::string(race::atomicity_pattern_name(found.pattern)).c_str(),
        found.object_name.empty() ? "<anonymous>"
                                  : found.object_name.c_str(),
        static_cast<long long>(out.value_about_to_read),
        static_cast<long long>(out.value_about_to_write));
    break;
  }
  return out;
}

}  // namespace owl::verify
