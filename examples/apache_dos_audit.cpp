// Audits the Apache-46215 load balancer the way a security engineer would
// use OWL (paper Fig. 8, §8.4): run the pipeline, read the hint that a
// pointer assignment at proxy_balancer.c:1195 is control-dependent on a
// corrupted unsigned comparison, then demonstrate the denial of service —
// a worker whose busy counter underflowed to ~2^64 never gets another
// request.
#include <cstdio>

#include "support/strings.hpp"
#include "vuln/hint.hpp"
#include "workloads/registry.hpp"

using namespace owl;

int main() {
  const workloads::Workload apache = workloads::make_apache_balancer();

  core::Pipeline pipeline(apache.pipeline_options());
  const core::PipelineResult result = pipeline.run(apache.target());
  ir::NameTable names;

  std::printf("--- OWL's hint on the busyness race ---\n");
  for (const vuln::ExploitReport& exploit : result.exploits) {
    if (exploit.site->loc().line == 1195) {
      std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
    }
  }
  std::printf("pipeline verdict: %s\n\n",
              apache.attack_detected(result)
                  ? "attack detected (site reachable under corrupted branch)"
                  : "NOT detected");

  // ---- demonstrate the DoS ----
  for (unsigned attempt = 0; attempt < 30; ++attempt) {
    auto machine = apache.make_machine(apache.exploit_inputs);
    interp::RandomScheduler sched(500 + attempt);
    machine->run(sched);
    if (!apache.attack_succeeded(*machine)) continue;

    const interp::Address busy = machine->global_address("worker_busy");
    const interp::Address served = machine->global_address("worker_served");
    std::printf("--- after the attack (run %u) ---\n", attempt + 1);
    std::printf("%-8s %-26s %s\n", "worker", "busy counter", "requests served");
    for (int w = 0; w < 4; ++w) {
      const auto busy_value = static_cast<std::uint64_t>(
          machine->memory().load_raw(busy + static_cast<interp::Address>(w) * 8));
      std::printf("w%-7d %-26s %lld\n", w,
                  with_commas(busy_value).c_str(),
                  static_cast<long long>(machine->memory().load_raw(
                      served + static_cast<interp::Address>(w) * 8)));
    }
    std::printf(
        "\nThe wrapped counter (the paper observed\n"
        "18,446,744,073,709,551,614) marks that worker \"busiest\" forever:\n"
        "find_best_bybusyness never selects it again — a DoS that quietly\n"
        "degrades throughput with no crash to notice.\n");
    return 0;
  }
  std::printf("underflow did not manifest in 30 runs\n");
  return 1;
}
