// Extension experiment (paper §8.3, implemented future work): feeding OWL
// from an atomicity-violation detector instead of a race detector.
//
// The bank-teller target is a check-then-act double spend where every
// access is individually lock-protected: happens-before detection (TSan
// mode) is structurally blind to it, while the AVIO/CTrigger-style
// unserializable-interleaving detector reports the triple, and the rest of
// the OWL pipeline — reproduction-based verification, Algorithm 1,
// dynamic vulnerability verification — runs on it unchanged.
#include "common.hpp"
#include "race/tsan_detector.hpp"
#include "support/strings.hpp"
#include "vuln/hint.hpp"

int main() {
  using namespace owl;
  bench::print_header(
      "Extension: atomicity-violation attacks through the OWL pipeline",
      "§8.3: \"by integrating these detectors OWL can detect more attacks\"");

  const workloads::Workload bank = workloads::make_bank_atomicity();

  // --- head-to-head: TSan mode vs atomicity mode on the same target ---
  TableFormatter table({"detector", "raw reports", "verified", "hints",
                        "attack detected"},
                       {Align::kLeft, Align::kRight, Align::kRight,
                        Align::kRight, Align::kLeft});
  bool atomicity_detected = false;
  for (const auto kind :
       {core::DetectorKind::kTsan, core::DetectorKind::kAtomicity}) {
    core::PipelineTarget target = bank.target();
    target.detector = kind;
    target.detection_schedules = bench::schedules_from_env();
    const core::PipelineResult result =
        core::Pipeline(bank.pipeline_options()).run(target);
    const bool detected = bank.attack_detected(result);
    if (kind == core::DetectorKind::kAtomicity) atomicity_detected = detected;
    table.add_row({kind == core::DetectorKind::kTsan
                       ? "TSan (happens-before)"
                       : "atomicity (AVIO/CTrigger)",
                   std::to_string(result.counts.raw_reports),
                   std::to_string(result.counts.remaining),
                   std::to_string(result.counts.vulnerability_reports),
                   detected ? "yes" : "no"});
  }
  std::fputs(table.render().c_str(), stdout);

  // --- the full story on the atomicity path ---
  core::PipelineTarget target = bank.target();
  const core::PipelineResult result =
      core::Pipeline(bank.pipeline_options()).run(target);
  ir::NameTable names;
  std::printf("\n--- OWL's hint on the double spend ---\n");
  for (const vuln::ExploitReport& exploit : result.exploits) {
    if (exploit.site->opcode() == ir::Opcode::kEval) {
      std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
      break;
    }
  }

  // --- exploit demonstration ---
  unsigned stolen_runs = 0;
  interp::Word worst_dispensed = 0;
  for (unsigned i = 0; i < 20; ++i) {
    auto machine = bank.make_machine(bank.exploit_inputs);
    interp::RandomScheduler sched(42 + i);
    machine->run(sched);
    interp::Word dispensed = 0;
    for (const interp::EvalRecord& rec : machine->evals()) {
      dispensed += rec.command_id;
    }
    if (dispensed > 10) {
      ++stolen_runs;
      worst_dispensed = std::max(worst_dispensed, dispensed);
    }
  }
  std::printf(
      "\nexploit: %u/20 runs dispensed more than the balance covered\n"
      "(opening balance 10, worst run dispensed %lld).\n",
      stolen_runs, static_cast<long long>(worst_dispensed));

  std::printf(
      "\nShape check: happens-before detection reports NOTHING on this\n"
      "target (each access is lock-protected); the atomicity detector\n"
      "feeds the unchanged pipeline and the attack is found: %s.\n",
      atomicity_detected ? "yes" : "NO");
  return atomicity_detected && stolen_runs > 0 ? 0 : 1;
}
