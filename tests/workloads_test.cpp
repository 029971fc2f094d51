// Integration tests: every modelled target program goes through the whole
// OWL pipeline and its attack must be detected; exploit drivers must
// realize the attack within the paper's repetition budget (Finding III /
// Table 4: subtle inputs trigger within ~20 repetitions).
#include <gtest/gtest.h>

#include <string>

#include "ir/verifier.hpp"
#include "support/metrics.hpp"
#include "vuln/sites.hpp"
#include "workloads/registry.hpp"

namespace owl::workloads {
namespace {

// Small noise keeps the suite quick; the benches run full scale.
NoiseProfile test_profile() {
  NoiseProfile p;
  p.scale = 0.3;
  return p;
}

core::PipelineResult run_pipeline(const Workload& w) {
  core::Pipeline pipeline(w.pipeline_options());
  return pipeline.run(w.target());
}

unsigned exploit_successes(const Workload& w, unsigned runs,
                           std::uint64_t seed_base = 5000) {
  unsigned hits = 0;
  for (unsigned i = 0; i < runs; ++i) {
    auto machine = w.make_machine(w.exploit_inputs);
    interp::RandomScheduler sched(seed_base + i);
    machine->run(sched);
    if (w.attack_succeeded(*machine)) ++hits;
  }
  return hits;
}

class WorkloadSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSuite, ModuleIsWellFormed) {
  const Workload w = make_by_name(GetParam(), test_profile());
  EXPECT_TRUE(ir::verify_module(*w.module).is_ok());
  EXPECT_NE(w.entry, nullptr);
  EXPECT_FALSE(w.name.empty());
  EXPECT_FALSE(w.program.empty());
}

TEST_P(WorkloadSuite, TestingRunTerminates) {
  const Workload w = make_by_name(GetParam(), test_profile());
  auto machine = w.make_machine(w.testing_inputs);
  interp::RandomScheduler sched(42);
  const interp::RunResult result = machine->run(sched);
  EXPECT_EQ(result.reason, interp::StopReason::kAllFinished)
      << "steps=" << result.steps;
}

TEST_P(WorkloadSuite, PipelineDetectsTheAttacks) {
  const Workload w = make_by_name(GetParam(), test_profile());
  const core::PipelineResult result = run_pipeline(w);
  // One recorded site per modelled attack, each a §3.2 vulnerable site;
  // Table 2's "# found" counts every one of them.
  EXPECT_EQ(w.attack_sites.size(), w.known_attacks);
  for (const ir::Instruction* site : w.attack_sites) {
    ASSERT_NE(site, nullptr);
    EXPECT_TRUE(vuln::classify_site(*site).has_value())
        << site->loc().to_string();
  }
  EXPECT_EQ(w.count_found(result), w.known_attacks);
  if (w.known_attacks == 0) {
    EXPECT_FALSE(w.attack_detected(result));
    return;
  }
  EXPECT_TRUE(w.attack_detected(result))
      << w.name << ": raw=" << result.counts.raw_reports
      << " remaining=" << result.counts.remaining
      << " vuln=" << result.counts.vulnerability_reports
      << " attacks=" << result.attacks.size();
}

TEST_P(WorkloadSuite, PipelineReducesReports) {
  const Workload w = make_by_name(GetParam(), test_profile());
  const core::PipelineResult result = run_pipeline(w);
  if (result.counts.raw_reports < 10) return;  // tiny targets: nothing to prune
  // The headline claim, per program: most benign reports are pruned.
  EXPECT_LT(result.counts.remaining, result.counts.raw_reports)
      << w.name;
  EXPECT_GT(result.counts.reduction_ratio(), 0.4) << w.name;
}

TEST_P(WorkloadSuite, ExploitSucceedsWithinPaperBudget) {
  const Workload w = make_by_name(GetParam(), test_profile());
  if (w.known_attacks == 0) {
    EXPECT_EQ(exploit_successes(w, 20), 0u);
    return;
  }
  // Finding III: with crafted inputs, attacks trigger within ~20 repeats.
  EXPECT_GE(exploit_successes(w, 20), 1u) << w.name;
}

TEST_P(WorkloadSuite, TestingInputsDoNotRealizeTheAttack) {
  const Workload w = make_by_name(GetParam(), test_profile());
  // The benchmark workload (what the detectors run on) should generally
  // not trip the exploit: OWL's value is finding it anyway. Allow rare
  // accidental manifestations, but the rate must be far below exploit rate.
  unsigned hits = 0;
  for (unsigned i = 0; i < 10; ++i) {
    auto machine = w.make_machine(w.testing_inputs);
    interp::RandomScheduler sched(9000 + i);
    machine->run(sched);
    if (w.attack_succeeded(*machine)) ++hits;
  }
  EXPECT_LE(hits, 3u) << w.name;
}

INSTANTIATE_TEST_SUITE_P(AllTargets, WorkloadSuite,
                         ::testing::Values("libsafe", "linux", "mysql-flush",
                                           "mysql-setpass", "ssdb",
                                           "apache-log", "apache-balancer",
                                           "chrome", "memcached"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RegistryTest, MakeAllCoversEveryProgram) {
  const auto all = make_all(test_profile());
  EXPECT_EQ(all.size(), 9u);
  std::size_t attacks = 0;
  for (const Workload& w : all) attacks += w.known_attacks;
  // Paper Table 2: 10 attack bugs evaluated end to end; we model them all.
  EXPECT_EQ(attacks, 10u);
}

TEST(RegistryTest, UnknownNameThrows) {
  EXPECT_THROW(make_by_name("nginx"), std::invalid_argument);
}

TEST(RegistryTest, NoiseScaleGrowsReportVolume) {
  NoiseProfile small;
  small.scale = 0.1;
  NoiseProfile large;
  large.scale = 1.0;
  const Workload ws = make_memcached(small);
  const Workload wl = make_memcached(large);
  EXPECT_LT(ws.module->instruction_count(), wl.module->instruction_count());
}

// The audits that hold must hold on the paper models, not only on the
// examples: with prescreen and vuln-flow in audit mode, every model at
// noise scales 1 and 2 counts zero soundness violations. (Predict audit is
// known to fire on the models; PredictPipelineTest.
// WorkloadAuditViolationsExitThree pins that.)
TEST(WorkloadAuditTest, PrescreenAndVulnFlowAuditsHoldOnPaperModels) {
  std::size_t raw_reports = 0;
  for (const int scale : {1, 2}) {
    for (const Workload& w : make_all({static_cast<double>(scale)})) {
      core::PipelineOptions options = w.pipeline_options();
      options.prescreen = race::PrescreenMode::kAudit;
      options.vuln_flow = analysis::ValueFlowMode::kAudit;
      const core::PipelineResult result =
          core::Pipeline(options).run(w.target(/*seed=*/1));
      const std::string where = w.name + " at scale " + std::to_string(scale);
      EXPECT_EQ(result.audit.prescreen, 0u) << where;
      EXPECT_EQ(result.audit.vuln_flow, 0u) << where;
      raw_reports += result.counts.raw_reports;
    }
  }
  EXPECT_GT(raw_reports, 0u);
  support::metrics().reset();
}

// The Libsafe end-to-end story from the paper's §4.3 walkthrough: the
// confirmed attack's artifacts are exactly the published ones.
TEST(LibsafeStory, MatchesPaperWalkthrough) {
  const Workload w = make_libsafe(test_profile());
  const core::PipelineResult result = run_pipeline(w);
  ASSERT_TRUE(w.attack_detected(result));

  const core::ConcurrencyAttack* attack = nullptr;
  for (const core::ConcurrencyAttack& a : result.attacks) {
    if (a.exploit.site->opcode() == ir::Opcode::kStrCpy) attack = &a;
  }
  ASSERT_NE(attack, nullptr);
  // Fig. 5: the vulnerable site is the strcpy at intercept.c:165, reached
  // through the corrupted branch at intercept.c:164.
  EXPECT_EQ(attack->exploit.site->loc().to_string(), "intercept.c:165");
  ASSERT_FALSE(attack->exploit.branches.empty());
  EXPECT_EQ(attack->exploit.branches.back()->loc().to_string(),
            "intercept.c:164");
  EXPECT_EQ(attack->exploit.dep, vuln::DepKind::kControl);
  // The race itself is the dying flag (util.c:145 read, libsafe.c:1640
  // write).
  const race::AccessRecord* read = attack->race.read_side();
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->instr->loc().to_string(), "util.c:145");
}

// The SSDB story (§8.4, CVE-2016-1000324): OWL pinpoints the pointer call
// at binlog.cpp:347, control-dependent on the corrupted branch at 359/360,
// and the dynamic verifier observes the use-after-free.
TEST(SsdbStory, MatchesPaperSection84) {
  const Workload w = make_ssdb(test_profile());
  const core::PipelineResult result = run_pipeline(w);
  ASSERT_TRUE(w.attack_detected(result));
  bool uaf_observed = false;
  for (const core::ConcurrencyAttack& attack : result.attacks) {
    for (const interp::SecurityEvent& event : attack.verification.events) {
      uaf_observed |=
          event.kind == interp::SecurityEventKind::kUseAfterFree ||
          event.kind == interp::SecurityEventKind::kNullFuncPtrDeref;
    }
  }
  EXPECT_TRUE(uaf_observed);
}

// The Apache-25520 story (§8.4): the HTML integrity violation — Apache's
// own request log written into the user's HTML file fd.
TEST(ApacheLogStory, HtmlIntegrityViolationRealizable) {
  const Workload w = make_apache_log(test_profile());
  unsigned html_hits = 0;
  for (unsigned i = 0; i < 40; ++i) {
    auto machine = w.make_machine(w.exploit_inputs);
    interp::RandomScheduler sched(31337 + i);
    machine->run(sched);
    const interp::Word html_fd = machine->read_global("html_fd");
    for (const interp::FileWriteRecord& rec : machine->file_writes()) {
      if (rec.fd == html_fd && rec.instr->loc().line == 1343) {
        ++html_hits;
        break;
      }
    }
  }
  EXPECT_GE(html_hits, 1u);
}

// The Apache-46215 story (§8.4): the wrapped counter equals the paper's
// 18,446,744,073,709,551,614 and the starved worker stops being selected.
TEST(ApacheBalancerStory, UnderflowMatchesPaperValue) {
  const Workload w = make_apache_balancer(test_profile());
  for (unsigned i = 0; i < 40; ++i) {
    auto machine = w.make_machine(w.exploit_inputs);
    interp::RandomScheduler sched(4000 + i);
    machine->run(sched);
    if (!w.attack_succeeded(*machine)) continue;
    const interp::Address base = machine->global_address("worker_busy");
    for (int worker = 0; worker < 4; ++worker) {
      const auto value = static_cast<std::uint64_t>(machine->memory().load_raw(
          base + static_cast<interp::Address>(worker) * 8));
      if (value > (1ULL << 63)) {
        // The paper observed 18,446,744,073,709,551,614 (one wrap); further
        // raced decrements can push it lower, but it stays in the "busiest
        // thread ever" range that starves the worker.
        EXPECT_GE(value, 18446744073709551520ULL);
        return;
      }
    }
  }
  GTEST_FAIL() << "underflow never manifested in 40 exploit runs";
}

}  // namespace
}  // namespace owl::workloads
