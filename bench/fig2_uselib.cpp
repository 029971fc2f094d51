// Regenerates Fig. 2 — the Linux uselib()/msync() f_op race — under the
// SKI-mode kernel detector, and quantifies the paper's timing-window claim:
// stretching the IO between the f_op check and the fsync call widens the
// vulnerable window and raises the attack's trigger rate (§3.1 Finding III).
#include "common.hpp"
#include "support/strings.hpp"
#include "vuln/hint.hpp"

int main() {
  using namespace owl;
  bench::print_header(
      "Fig. 2: Linux uselib()/msync() NULL function-pointer race",
      "kernel race under SKI; IO timing widens the vulnerable window");

  const workloads::Workload w = workloads::make_linux(bench::bench_profile());
  const core::PipelineResult result = bench::run_pipeline(w);
  ir::NameTable names;

  std::printf("SKI-mode detection: %zu raw reports, %zu after annotating %zu "
              "adhoc syncs\n\n",
              result.counts.raw_reports, result.counts.after_annotation,
              result.counts.adhoc_syncs);

  std::printf("--- static vulnerability hints on the kernel races ---\n");
  for (const vuln::ExploitReport& exploit : result.exploits) {
    if (exploit.site->loc().file != "mm/msync.c" &&
        exploit.site->opcode() != ir::Opcode::kSetUid) {
      continue;
    }
    std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
  }

  // The timing-window sweep: trigger rate of the NULL-func-ptr deref as a
  // function of the msync IO window (exploit input 0). The sweep runs on a
  // noise-free kernel build so the window effect is not drowned by
  // scheduler-induced delays from unrelated threads.
  workloads::NoiseProfile quiet;
  quiet.scale = 0.0;
  const workloads::Workload sweep_target = workloads::make_linux(quiet);
  std::printf("\n--- vulnerable-window sweep (noise-free kernel, 20 runs per point) ---\n");
  TableFormatter table({"msync IO window (ticks)", "NULL-deref trigger rate"},
                       {Align::kRight, Align::kRight});
  unsigned widest_rate = 0;
  unsigned narrowest_rate = 0;
  const interp::Word windows[] = {0, 2, 5, 10, 25, 50};
  for (const interp::Word window : windows) {
    std::vector<interp::Word> inputs = sweep_target.exploit_inputs;
    inputs[0] = window;
    unsigned hits = 0;
    for (unsigned i = 0; i < 20; ++i) {
      // The attacker does not control the exact uselib timing — sample it
      // uniformly over the msync loop's duration; the fraction of landing
      // spots that fall inside a check-to-use window is what the window
      // width buys.
      const interp::Word duration = 8 * (window + 6);
      inputs[1] = static_cast<interp::Word>((i * 13 + 1) % duration);
      auto machine = sweep_target.make_machine(inputs);
      interp::RandomScheduler sched(1234 + i);
      machine->run(sched);
      if (machine->has_event(interp::SecurityEventKind::kNullFuncPtrDeref)) {
        ++hits;
      }
    }
    if (window == windows[0]) narrowest_rate = hits;
    widest_rate = hits;
    table.add_row({std::to_string(window),
                   str_format("%u/20", hits)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nShape check: the trigger rate grows with the IO window (the\n"
      "paper's \"carefully crafted input timings expand the vulnerable\n"
      "window\"): %u/20 at the narrowest vs %u/20 at the widest.\n",
      narrowest_rate, widest_rate);
  std::printf("both kernel attacks statically detected: %s\n",
              w.attack_detected(result) ? "yes" : "NO");
  return w.attack_detected(result) ? 0 : 1;
}
