// Regenerates Fig. 7 and the §8.4 Apache-25520 result: the outcnt race in
// ap_buffered_log_writer lets a stale bounds check meet a fresh index, the
// one-cell overflow replaces the request log's file descriptor with the
// attacker's payload value, and Apache flushes its own HTTP request log
// INTO a user's HTML file — an HTML integrity violation and information
// leak OWL was the first to find.
#include "common.hpp"
#include "support/strings.hpp"
#include "vuln/hint.hpp"

int main() {
  using namespace owl;
  bench::print_header(
      "Fig. 7: Apache-25520 buffered-log race -> HTML integrity violation",
      "memcpy at http_log.c:1359 data-dependent on corrupted outcnt (1358)");

  const workloads::Workload w =
      workloads::make_apache_log(bench::bench_profile());
  const core::PipelineResult result = bench::run_pipeline(w);
  ir::NameTable names;

  std::printf("--- OWL's hints on the log-buffer race ---\n");
  for (const vuln::ExploitReport& exploit : result.exploits) {
    if (exploit.site->loc().file == "http_log.c") {
      std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
    }
  }

  // Exploit demonstration: count runs where the log flush wrote through
  // the corrupted fd into the HTML file, and show one corrupted flush.
  unsigned html_hits = 0;
  bool shown = false;
  const unsigned runs = 30;
  for (unsigned i = 0; i < runs; ++i) {
    auto machine = w.make_machine(w.exploit_inputs);
    interp::RandomScheduler sched(2222 + i);
    machine->run(sched);
    const interp::Word html_fd = machine->read_global("html_fd");
    for (const interp::FileWriteRecord& rec : machine->file_writes()) {
      if (rec.fd != html_fd || rec.instr->loc().line != 1343) continue;
      ++html_hits;
      if (!shown) {
        shown = true;
        std::printf(
            "\n--- one corrupted flush (run %u) ---\n"
            "flush_log wrote %zu cells of Apache's request log to fd %lld —\n"
            "the USER'S HTML FILE (the request log's own fd was %lld before\n"
            "the one-cell overflow at outbuf[8] replaced it with the\n"
            "attacker's payload byte).\n",
            i, rec.payload.size(), static_cast<long long>(rec.fd),
            static_cast<long long>(3));
      }
      break;
    }
  }

  std::printf("\nHTML integrity violation realized in %u/%u exploit runs\n",
              html_hits, runs);
  std::printf("attack detected by pipeline: %s\n",
              w.attack_detected(result) ? "yes" : "NO");
  return w.attack_detected(result) && html_hits > 0 ? 0 : 1;
}
