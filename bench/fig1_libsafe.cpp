// Regenerates the paper's running example end to end: Fig. 1 (the Libsafe
// dying-flag attack), Fig. 4 (the racy read's call stack) and Fig. 5
// (OWL's vulnerable-input hint), then demonstrates the exploit.
#include "common.hpp"
#include "support/strings.hpp"
#include "vuln/hint.hpp"

int main() {
  using namespace owl;
  bench::print_header(
      "Fig. 1/4/5: the Libsafe concurrency attack walkthrough (§4.3)",
      "dying race -> stack_check bypass -> strcpy overflow -> code injection");

  const workloads::Workload w =
      workloads::make_libsafe(bench::bench_profile());
  const core::PipelineResult result = bench::run_pipeline(w);
  ir::NameTable names;

  std::printf("--- race reports after reduction (%zu of %zu raw) ---\n",
              result.counts.remaining, result.counts.raw_reports);
  for (const race::RaceReport& report :
       result.store.stage(core::Stage::kAfterRaceVerifier)) {
    std::fputs(report.to_string(names).c_str(), stdout);
    std::printf("\n");
  }

  std::printf("--- Fig. 4: call stack of the corrupted read ---\n");
  for (const race::RaceReport& report :
       result.store.stage(core::Stage::kAfterRaceVerifier)) {
    if (report.object_name != "dying") continue;
    const race::AccessRecord* read = report.read_side();
    if (read != nullptr) {
      std::fputs(interp::call_stack_to_string(read->stack).c_str(), stdout);
    }
  }

  std::printf("\n--- Fig. 5: OWL's vulnerable input hint ---\n");
  for (const vuln::ExploitReport& exploit : result.exploits) {
    std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
  }

  std::printf("\n--- dynamic verification & exploitation ---\n");
  for (const core::ConcurrencyAttack& attack : result.attacks) {
    std::fputs(attack.to_string(names).c_str(), stdout);
  }

  // Run the exploit script: repeated oversized requests with the second
  // timed into the dying window; the payload carries the "shellcode"
  // address that lands in the return slot.
  unsigned shell = 0;
  const unsigned runs = 20;
  for (unsigned i = 0; i < runs; ++i) {
    auto machine = w.make_machine(w.exploit_inputs);
    interp::RandomScheduler sched(7000 + i);
    machine->run(sched);
    for (const interp::EvalRecord& rec : machine->evals()) {
      if (rec.command_id == 1337) {
        ++shell;
        break;
      }
    }
  }
  std::printf("\nexploit script: injected shell ran in %u/%u repetitions\n",
              shell, runs);
  std::printf("detected by pipeline: %s\n",
              w.attack_detected(result) ? "yes" : "NO");
  return w.attack_detected(result) && shell > 0 ? 0 : 1;
}
