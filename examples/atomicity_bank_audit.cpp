// Auditing a lock-protected program for atomicity-violation attacks — the
// §8.3 extension end to end, plus schedule replay: once the double spend
// manifests, rerunning its scheduler seed reproduces the exact triggering
// schedule.
//
// The target: a bank teller whose balance check and debit are each under
// the lock, but not together. No data race exists (TSan mode is silent);
// the unserializable R-W-W triple is the bug, and two concurrent
// withdrawals of 6 from a balance of 10 both dispense.
#include <cstdio>

#include "race/tsan_detector.hpp"
#include "vuln/hint.hpp"
#include "workloads/registry.hpp"

using namespace owl;

int main() {
  const workloads::Workload bank = workloads::make_bank_atomicity();

  // ---- 1. Show that happens-before detection has nothing to say ----
  {
    auto machine = bank.make_machine(bank.testing_inputs);
    race::TsanDetector tsan;
    machine->add_observer(&tsan);
    interp::RandomScheduler sched(1);
    machine->run(sched);
    std::printf("TSan-mode race reports on the bank: %zu "
                "(every access is lock-protected)\n\n",
                tsan.take_reports().size());
  }

  // ---- 2. The atomicity-fed OWL pipeline finds the attack ----
  core::Pipeline pipeline(bank.pipeline_options());
  const core::PipelineResult result = pipeline.run(bank.target());
  ir::NameTable names;
  std::printf("atomicity-mode pipeline: %zu report(s), %zu verified, "
              "%zu hint(s), attack detected: %s\n\n",
              result.counts.raw_reports, result.counts.remaining,
              result.counts.vulnerability_reports,
              bank.attack_detected(result) ? "yes" : "no");
  for (const vuln::ExploitReport& exploit : result.exploits) {
    std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
  }

  // ---- 3. Manifest the double spend; its seed is the schedule ----
  for (unsigned attempt = 0; attempt < 30; ++attempt) {
    auto machine = bank.make_machine(bank.exploit_inputs);
    interp::RandomScheduler sched(3000 + attempt);
    machine->run(sched);
    if (!bank.attack_succeeded(*machine)) continue;

    interp::Word dispensed = 0;
    for (const interp::EvalRecord& rec : machine->evals()) {
      dispensed += rec.command_id;
    }
    std::printf("\nattempt %u: double spend! dispensed %lld against an "
                "opening balance of 10 (final balance %lld)\n",
                attempt + 1, static_cast<long long>(dispensed),
                static_cast<long long>(machine->read_global("balance")));

    // ---- 4. Replay the seed: the theft reproduces exactly ----
    auto replay_machine = bank.make_machine(bank.exploit_inputs);
    interp::RandomScheduler replay(3000 + attempt);
    replay_machine->run(replay);
    interp::Word replayed = 0;
    for (const interp::EvalRecord& rec : replay_machine->evals()) {
      replayed += rec.command_id;
    }
    std::printf("replayed schedule: dispensed %lld — %s\n",
                static_cast<long long>(replayed),
                replayed == dispensed ? "identical, shippable repro"
                                      : "MISMATCH");
    return replayed == dispensed ? 0 : 1;
  }
  std::printf("double spend did not manifest in 30 attempts\n");
  return 1;
}
