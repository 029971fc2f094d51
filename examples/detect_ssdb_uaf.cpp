// Reproduces OWL's flagship previously-unknown finding: the SSDB-1.9.2
// shutdown use-after-free, confirmed as CVE-2016-1000324 (paper Fig. 6 and
// §8.4), using only the library's public API:
//
//   1. take the packaged ssdb workload model,
//   2. run the pipeline,
//   3. print the bug-to-attack story OWL reconstructs,
//   4. replay the exploit and watch the use-after-free happen live.
#include <cstdio>

#include "vuln/hint.hpp"
#include "workloads/registry.hpp"

using namespace owl;

int main() {
  const workloads::Workload ssdb = workloads::make_ssdb();

  std::printf("target: %s — %s\n\n", ssdb.name.c_str(),
              ssdb.description.c_str());

  // ---- the OWL pipeline ----
  core::Pipeline pipeline(ssdb.pipeline_options());
  const core::PipelineResult result = pipeline.run(ssdb.target());
  ir::NameTable names;

  std::printf("detector: %zu raw reports; %zu survive reduction "
              "(paper: 12 -> 2)\n\n",
              result.counts.raw_reports, result.counts.remaining);

  std::printf("--- what OWL tells the developer ---\n");
  for (const core::ConcurrencyAttack& attack : result.attacks) {
    if (attack.exploit.site->loc().line != 347) continue;
    std::fputs(attack.to_string(names).c_str(), stdout);
    break;
  }

  // ---- replay the exploit with the crafted inputs ----
  std::printf("\n--- exploit replay (crafted shutdown timing) ---\n");
  for (unsigned attempt = 0; attempt < 20; ++attempt) {
    auto machine = ssdb.make_machine(ssdb.exploit_inputs);
    interp::RandomScheduler sched(100 + attempt);
    machine->run(sched);
    if (!ssdb.attack_succeeded(*machine)) continue;
    std::printf("attempt %u: attack realized —\n", attempt + 1);
    for (const interp::SecurityEvent& event : machine->security_events()) {
      std::printf("  %s\n", event.to_string().c_str());
    }
    std::printf(
        "\nThe cleaner thread read the db handle at binlog.cpp:359 before\n"
        "the destructor nulled it at line 200, failed to break out of its\n"
        "loop, and del_range dereferenced freed memory at lines 346-347 —\n"
        "exactly the CVE-2016-1000324 report.\n");
    return 0;
  }
  std::printf("attack did not manifest in 20 attempts (unlucky schedules)\n");
  return 1;
}
