#include "verify/race_verifier.hpp"

#include <atomic>
#include <vector>

#include "interp/debugger.hpp"
#include "race/atomicity_detector.hpp"
#include "ir/printer.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace owl::verify {
namespace {

/// §5.2 release rule allowance: breakpoint releases per attempt before the
/// attempt is declared livelocked and a fresh seed is tried.
constexpr std::uint64_t kLivelockReleases = 1;
/// Watchdog: machine-run resumptions per attempt before the verifier
/// session is declared livelocked (breaks zero-progress break/release
/// cycles that never reach the release rule).
constexpr std::uint64_t kWatchdogIterations = 4096;

}  // namespace

RaceVerifyResult RaceVerifier::explore(
    race::RaceReport& report,
    const std::function<AttemptOutcome(unsigned)>& attempt) const {
  TRACE_SPAN("race-verify-report", "explore");
  // An attempt that verifies or throws ends the exploration, so a slot
  // skips its attempt when a lower one already did: on one thread that is
  // exactly the sequential early exit. Skipped attempts all lie past the
  // point where the fold below stops, and the fold walks the outcomes in
  // attempt order, so every pool size produces the same result.
  const unsigned attempts = options_.max_attempts;
  std::vector<AttemptOutcome> outcomes(attempts);
  std::atomic<unsigned> last = attempts;  // lowest attempt that ended it
  support::ThreadPool caller(1);
  (options_.pool != nullptr ? *options_.pool : caller)
      .parallel_for(attempts, [&](std::size_t slot) {
        const auto index = static_cast<unsigned>(slot);
        if (index > last.load()) return;
        AttemptOutcome& out = outcomes[index];
        try {
          out = attempt(index);
        } catch (...) {
          out.error = std::current_exception();
        }
        if (!out.verified && !out.error) return;
        unsigned seen = last.load();
        while (index < seen && !last.compare_exchange_weak(seen, index)) {
        }
      });

  RaceVerifyResult result;
  bool any_livelock = false;
  for (const AttemptOutcome& out : outcomes) {
    if (out.error) std::rethrow_exception(out.error);
    ++result.attempts;
    result.steps_spent += out.steps;
    result.livelock_releases += out.livelock_releases;
    if (out.livelocked) any_livelock = true;
    if (out.verified) {
      result.verified = true;
      report.verified = true;
      report.security_hint = out.security_hint;
      break;
    }
  }
  result.livelocked = any_livelock && !result.verified;
  // Metrics flush from the *folded* result, never from raw attempt
  // executions: on several threads an attempt past the winner may still
  // run, but the fold ignores it, so these sums stay byte-identical across
  // jobs values.
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("race_verifier.reports").inc();
  registry.counter("race_verifier.attempts").inc(result.attempts);
  registry.counter("race_verifier.livelock_releases")
      .inc(result.livelock_releases);
  if (result.verified) registry.counter("race_verifier.verified").inc();
  if (result.livelocked) registry.counter("race_verifier.livelocked").inc();
  return result;
}

RaceVerifyResult RaceVerifier::verify(
    race::RaceReport& report, const interp::MachineFactory& factory) const {
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
    const race::RaceReport& report, const interp::MachineFactory& factory,
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
    if (++iterations > kWatchdogIterations) {
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
          // Each side's address is the operand it accesses on the side of
          // the report (a bulk copy reads its source, writes its dest).
          const ir::Value* ptr_a = a.instr->accessed_address(a.is_write);
          const ir::Value* ptr_b = b.instr->accessed_address(b.is_write);
          if (ptr_a == nullptr || ptr_b == nullptr) {
            done = true;
            break;
          }
          const auto addr_a = static_cast<interp::Address>(
              machine->eval_in_thread(a.tid, ptr_a));
          const auto addr_b = static_cast<interp::Address>(
              machine->eval_in_thread(b.tid, ptr_b));
          if (addr_a == addr_b && addr_a != 0) {
            // The racing moment. Extract §5.2 security hints.
            out.verified = true;
            const race::AccessRecord& writer = a.is_write ? a : b;
            const race::AccessRecord& reader = a.is_write ? b : a;
            const interp::Word about_to_read =
                machine->memory().load_raw(addr_a);
            interp::Word about_to_write = 0;
            if (writer.instr->opcode() == ir::Opcode::kStore) {
              about_to_write = machine->eval_in_thread(
                  writer.tid, writer.instr->operand(0));
            }
            const bool writes_null = about_to_write == 0 && writer.is_write;
            const interp::MemObject* obj =
                machine->memory().find_object(addr_a);
            const std::string object =
                obj != nullptr && !obj->name.empty() ? std::string(obj->name)
                                                     : "<anonymous>";
            const std::string variable_type(
                reader.instr != nullptr ? reader.instr->type().name() : "i64");
            out.security_hint = str_format(
                "racing pair verified on %s: about to read %lld, about to "
                "write %lld (type %s)%s",
                object.c_str(), static_cast<long long>(about_to_read),
                static_cast<long long>(about_to_write),
                variable_type.c_str(),
                writes_null ? " — NULL write: potential NULL "
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
        // kLivelockReleases times per attempt; past that the attempt is
        // declared livelocked and a fresh seed is tried.
        if (releases >= kLivelockReleases) {
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
    race::RaceReport& report, const interp::MachineFactory& factory) const {
  // Atomicity triples may be lock-protected access by access, so parking
  // one side would deadlock rather than expose a racing moment. Verify the
  // CTrigger way instead: re-run under fresh schedules and confirm the
  // same unserializable triple re-manifests.
  return explore(report, [&](unsigned attempt) {
    return run_atomicity_attempt(report, factory, attempt);
  });
}

RaceVerifier::AttemptOutcome RaceVerifier::run_atomicity_attempt(
    const race::RaceReport& report, const interp::MachineFactory& factory,
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
    const race::AccessRecord* read = found.corrupted_read();
    out.security_hint = str_format(
        "atomicity violation reproduced (%s on %s): stale local value "
        "%lld, remote wrote %lld",
        std::string(race::atomicity_pattern_name(found.pattern)).c_str(),
        found.object_name.empty() ? "<anonymous>"
                                  : found.object_name.c_str(),
        static_cast<long long>(read != nullptr ? read->value : 0),
        static_cast<long long>(found.remote.value));
    break;
  }
  return out;
}

}  // namespace owl::verify
