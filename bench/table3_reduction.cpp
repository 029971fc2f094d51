// Regenerates Table 3 — OWL's reduction of race-detector reports.
//
// Paper columns: R.R. (raw reports), A.S. (static adhoc syncs annotated),
// R.V.E. (race-verifier elimination), R. (remaining), A.C. (average static
// analysis cost per report). Headline: 94.3% of all reports pruned.
#include "common.hpp"
#include "support/strings.hpp"

int main() {
  using namespace owl;
  bench::print_header(
      "Table 3: OWL's reduction on race detector reports",
      "31,870 -> 1,881 remaining (94.3% of reports pruned); A.S. 22 total");

  // Paper reference rows {R.R., A.S., R.V.E., R.} for comparison.
  struct PaperRow {
    const char* name;
    long rr, as, rve, r;
  };
  const PaperRow kPaper[] = {
      {"apache-2.0.48", 715, 7, 1506, 10}, {"apache-46215", -1, -1, -1, -1},
      {"chrome-6.0.472.58", 1715, 1, 1587, 126},
      {"libsafe-2.0-16", 3, 0, 0, 3},      {"linux-2.6", 24641, 8, -1, 1718},
      {"memcached-1.4", 5376, 0, 5372, 4}, {"mysql-5.0.27", 1123, 6, 783, 18},
      {"mysql-5.1.35", -1, -1, -1, -1},    {"ssdb-1.9.2", 12, 0, 10, 2},
  };
  const auto paper_of = [&](const std::string& name) -> const PaperRow* {
    for (const PaperRow& row : kPaper) {
      if (name == row.name) return &row;
    }
    return nullptr;
  };
  const auto cell = [](long v) {
    return v < 0 ? std::string("-") : with_commas(static_cast<std::uint64_t>(v));
  };

  TableFormatter table({"Name", "R.R.", "A.S.", "R.V.E.", "R.", "A.C.",
                        "t seq/par (s)", "resilience",
                        "paper (R.R./A.S./R.V.E./R.)"},
                       {Align::kLeft, Align::kRight, Align::kRight,
                        Align::kRight, Align::kRight, Align::kRight,
                        Align::kRight, Align::kLeft, Align::kRight});

  std::size_t total_raw = 0;
  std::size_t total_adhoc = 0;
  std::size_t total_rve = 0;
  std::size_t total_remaining = 0;
  const auto workloads = workloads::make_all(bench::bench_profile());
  // One sequential + one jobs=N sweep; rows come from the parallel results
  // (proven byte-identical to the sequential baseline).
  const bench::ParallelSweep sweep = bench::run_all_pipelines(workloads);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const workloads::Workload& w = workloads[i];
    const core::PipelineResult& result = sweep.results[i];
    const core::StageCounts& c = result.counts;
    total_raw += c.raw_reports;
    total_adhoc += c.adhoc_syncs;
    total_rve += c.verifier_eliminated;
    total_remaining += c.remaining;

    const PaperRow* paper = paper_of(w.name);
    std::string paper_text = "-";
    if (paper != nullptr && paper->rr >= 0) {
      paper_text = cell(paper->rr) + "/" + cell(paper->as) + "/" +
                   cell(paper->rve) + "/" + cell(paper->r);
    }
    const bool kernel = w.detector == core::DetectorKind::kSki;
    table.add_row({w.name, with_commas(c.raw_reports),
                   std::to_string(c.adhoc_syncs),
                   kernel ? "N/A" : with_commas(c.verifier_eliminated),
                   with_commas(c.remaining),
                   c.avg_analysis_seconds > 0
                       ? str_format("%.0fus", c.avg_analysis_seconds * 1e6)
                       : "-",
                   str_format("%.2f/%.2f", sweep.baseline[i].total_seconds,
                              result.total_seconds),
                   c.resilience_summary(), paper_text});
  }
  table.add_rule();
  const double reduction =
      total_raw == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(total_remaining) /
                               static_cast<double>(total_raw));
  table.add_row({"Total", with_commas(total_raw), std::to_string(total_adhoc),
                 with_commas(total_rve), with_commas(total_remaining), "",
                 str_format("%.2fx speedup", sweep.speedup()), "",
                 "31,870/22/9,258/1,881"});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n%s\n", sweep.summary().c_str());

  std::printf(
      "\nOverall reduction: %.1f%% of raw reports pruned before\n"
      "vulnerability analysis (paper: 94.3%%). A.S. total %zu (paper: 22).\n"
      "R.V.E. is N/A for the kernel target — the paper's LLDB-based\n"
      "verifiers only support user-space programs (§8.3), and so does our\n"
      "kernel-mode configuration.\n",
      reduction, total_adhoc);
  return (reduction > 80.0 && sweep.identical) ? 0 : 1;
}
