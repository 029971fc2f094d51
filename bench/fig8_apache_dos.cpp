// Regenerates Fig. 8 and the §8.4 Apache-46215 result: the unlocked
// busy-counter check/decrement underflows to 18,446,744,073,709,551,614,
// marking a worker the "busiest" forever; find_best_bybusyness then starves
// it — a DoS with a measurable throughput/assignment skew.
#include "common.hpp"
#include "support/strings.hpp"
#include "vuln/hint.hpp"

int main() {
  using namespace owl;
  bench::print_header(
      "Fig. 8: Apache-46215 busy-counter underflow -> worker-starvation DoS",
      "pointer assignment at proxy_balancer.c:1195 control-dependent on the "
      "corrupted compare at 1192");

  const workloads::Workload w =
      workloads::make_apache_balancer(bench::bench_profile());
  const core::PipelineResult result = bench::run_pipeline(w);
  ir::NameTable names;

  std::printf("--- OWL's hints on the balancer race ---\n");
  for (const vuln::ExploitReport& exploit : result.exploits) {
    if (exploit.site->loc().file == "proxy_balancer.c") {
      std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
    }
  }

  // Request-distribution comparison: healthy run (testing inputs) vs a run
  // where the underflow manifested (exploit inputs). The starved worker's
  // share collapses.
  const auto measure = [&](const std::vector<interp::Word>& inputs,
                           bool require_underflow, std::uint64_t seed_base,
                           std::array<std::int64_t, 4>& served,
                           std::int64_t& busy0) {
    for (unsigned i = 0; i < 50; ++i) {
      auto machine = w.make_machine(inputs);
      interp::RandomScheduler sched(seed_base + i);
      machine->run(sched);
      const bool wrapped = w.attack_succeeded(*machine);
      if (wrapped != require_underflow) continue;
      const interp::Address sbase = machine->global_address("worker_served");
      for (int k = 0; k < 4; ++k) {
        served[static_cast<std::size_t>(k)] = machine->memory().load_raw(
            sbase + static_cast<interp::Address>(k) * 8);
      }
      busy0 = machine->memory().load_raw(
          machine->global_address("worker_busy"));
      return true;
    }
    return false;
  };

  std::array<std::int64_t, 4> healthy{};
  std::array<std::int64_t, 4> attacked{};
  std::int64_t healthy_busy0 = 0;
  std::int64_t attacked_busy0 = 0;
  const bool got_healthy =
      measure(w.testing_inputs, false, 100, healthy, healthy_busy0);
  const bool got_attacked =
      measure(w.exploit_inputs, true, 9100, attacked, attacked_busy0);

  TableFormatter table({"worker", "served (healthy)", "served (under attack)"},
                       {Align::kLeft, Align::kRight, Align::kRight});
  for (int k = 0; k < 4; ++k) {
    table.add_row({"w" + std::to_string(k),
                   got_healthy ? std::to_string(healthy[static_cast<std::size_t>(k)])
                               : "-",
                   got_attacked
                       ? std::to_string(attacked[static_cast<std::size_t>(k)])
                       : "-"});
  }
  std::printf("\n--- request distribution across workers ---\n");
  std::fputs(table.render().c_str(), stdout);

  if (got_attacked) {
    std::printf(
        "\nworker 0's busy counter after the attack: %s (paper observed\n"
        "18,446,744,073,709,551,614) — it is \"the busiest thread ever\"\n"
        "and the balancer ignores it: a DoS on that worker.\n",
        with_commas(static_cast<std::uint64_t>(attacked_busy0)).c_str());
  }
  std::printf("attack detected by pipeline (site 1195 reachable under the\n"
              "corrupted branch): %s\n",
              w.attack_detected(result) ? "yes" : "NO");

  const bool skew =
      got_attacked && attacked[0] <= attacked[1] && attacked[0] <= attacked[2];
  return w.attack_detected(result) && skew ? 0 : 1;
}
