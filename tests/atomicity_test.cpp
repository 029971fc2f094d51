// Unit + integration tests for the atomicity-violation detector (the §8.3
// CTrigger-class extension) and its pipeline integration.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "race/atomicity_detector.hpp"
#include "race/tsan_detector.hpp"
#include "verify/race_verifier.hpp"
#include "workloads/registry.hpp"

namespace owl::race {
namespace {

std::unique_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  auto m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

std::vector<AtomicityReport> detect(const ir::Module& m,
                                    std::uint64_t seed,
                                    std::vector<interp::Word> inputs = {}) {
  interp::MachineOptions options;
  options.inputs = std::move(inputs);
  interp::Machine machine(m, options);
  AtomicityDetector detector;
  machine.add_observer(&detector);
  machine.start(m.find_function("main"));
  interp::RandomScheduler sched(seed);
  machine.run(sched);
  return detector.take_reports();
}

// A check-then-act on @x with the interleaving forced by sleeps: T1 reads,
// sleeps, writes; T2 writes in between. The classic R-W-W triple.
const char* kRww = R"(module rww
global @x [1] = 10
func @local_thread() {
entry:
  %v = load @x
  io_delay 20
  %v2 = sub %v, 1
  store %v2, @x
  ret
}
func @remote_thread() {
entry:
  io_delay 5
  store 99, @x
  ret
}
func @main() {
entry:
  %a = thread_create @local_thread, 0
  %b = thread_create @remote_thread, 0
  thread_join %a
  thread_join %b
  ret
}
)";

TEST(AtomicityTest, DetectsRwwTriple) {
  auto m = parse_ok(kRww);
  const auto reports = detect(*m, 1);
  ASSERT_GE(reports.size(), 1u);
  bool found = false;
  for (const AtomicityReport& r : reports) {
    if (r.pattern != AtomicityPattern::kRWW) continue;
    found = true;
    EXPECT_EQ(r.object_name, "x");
    EXPECT_FALSE(r.first_local.is_write);
    EXPECT_TRUE(r.remote.is_write);
    EXPECT_TRUE(r.second_local.is_write);
    // The corrupted read is the stale local load.
    ASSERT_NE(r.corrupted_read(), nullptr);
    EXPECT_EQ(r.corrupted_read()->instr, r.first_local.instr);
  }
  EXPECT_TRUE(found);
}

TEST(AtomicityTest, SerializedExecutionIsQuiet) {
  // Same program but the remote write happens after the local pair.
  auto m = parse_ok(R"(module ser
global @x [1] = 10
func @local_thread() {
entry:
  %v = load @x
  %v2 = sub %v, 1
  store %v2, @x
  ret
}
func @remote_thread() {
entry:
  io_delay 500
  store 99, @x
  ret
}
func @main() {
entry:
  %a = thread_create @local_thread, 0
  %b = thread_create @remote_thread, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  EXPECT_TRUE(detect(*m, 1).empty());
}

TEST(AtomicityTest, SerializableTriplesNotReported) {
  // remote READ between local read and local read: R-R-R is serializable.
  auto m = parse_ok(R"(module rrr
global @x
func @local_thread() {
entry:
  %v = load @x
  io_delay 20
  %w = load @x
  ret
}
func @remote_thread() {
entry:
  io_delay 5
  %r = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @local_thread, 0
  %b = thread_create @remote_thread, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  EXPECT_TRUE(detect(*m, 1).empty());
}

TEST(AtomicityTest, RemoteWriteBetweenTwoReads) {
  auto m = parse_ok(R"(module rwr
global @x
func @local_thread() {
entry:
  %v = load @x
  io_delay 20
  %w = load @x
  print %w
  ret
}
func @remote_thread() {
entry:
  io_delay 5
  store 7, @x
  ret
}
func @main() {
entry:
  %a = thread_create @local_thread, 0
  %b = thread_create @remote_thread, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  const auto reports = detect(*m, 1);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports.front().pattern, AtomicityPattern::kRWR);
}

TEST(AtomicityTest, AtomicAccessesExcluded) {
  auto m = parse_ok(R"(module at
global @x
func @local_thread() {
entry:
  %v = atomic_add @x, 0
  io_delay 20
  %w = atomic_add @x, 1
  ret
}
func @remote_thread() {
entry:
  io_delay 5
  %r = atomic_add @x, 5
  ret
}
func @main() {
entry:
  %a = thread_create @local_thread, 0
  %b = thread_create @remote_thread, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  EXPECT_TRUE(detect(*m, 1).empty());
}

TEST(AtomicityTest, DeduplicatesAcrossIterations) {
  auto m = parse_ok(R"(module dd
global @x [1] = 100
func @local_thread() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  %v = load @x
  io_delay 8
  %v2 = sub %v, 1
  store %v2, @x
  %n = add %i, 1
  %c = icmp slt %n, 5
  br %c, loop, out
out:
  ret
}
func @remote_thread() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  store 50, @x
  io_delay 7
  %n = add %i, 1
  %c = icmp slt %n, 5
  br %c, loop, out
out:
  ret
}
func @main() {
entry:
  %a = thread_create @local_thread, 0
  %b = thread_create @remote_thread, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  interp::Machine machine(*m, {});
  AtomicityDetector detector;
  machine.add_observer(&detector);
  machine.start(m->find_function("main"));
  interp::RandomScheduler sched(3);
  machine.run(sched);
  auto reports = detector.take_reports();
  // One static triple regardless of how many iterations manifested it.
  std::size_t rww = 0;
  for (const AtomicityReport& r : reports) {
    if (r.pattern == AtomicityPattern::kRWW) {
      ++rww;
      EXPECT_GE(r.occurrences, 1u);
    }
  }
  EXPECT_EQ(rww, 1u);
}

TEST(AtomicityTest, ConversionCarriesCorruptedRead) {
  auto m = parse_ok(kRww);
  const auto reports = detect(*m, 1);
  ASSERT_GE(reports.size(), 1u);
  const RaceReport converted = reports.front().to_race_report();
  EXPECT_EQ(converted.kind, ReportKind::kAtomicityViolation);
  ASSERT_NE(converted.read_side(), nullptr);
  EXPECT_FALSE(converted.read_side()->is_write);
  EXPECT_NE(converted.security_hint.find("unserializable"),
            std::string::npos);
}

// ---- the headline property: invisible to happens-before detection ----

TEST(BankAtomicityTest, TsanIsSilentAtomicityIsNot) {
  const workloads::Workload bank = workloads::make_bank_atomicity();

  // TSan mode: every access is lock-protected; no race reports.
  {
    auto machine = bank.make_machine(bank.testing_inputs);
    TsanDetector tsan;
    machine->add_observer(&tsan);
    interp::RandomScheduler sched(1);
    machine->run(sched);
    EXPECT_TRUE(tsan.take_reports().empty());
  }
  // Atomicity mode: the unserializable triple is reported.
  {
    auto machine = bank.make_machine(bank.testing_inputs);
    AtomicityDetector detector;
    machine->add_observer(&detector);
    interp::RandomScheduler sched(1);
    machine->run(sched);
    EXPECT_FALSE(detector.take_reports().empty());
  }
}

TEST(BankAtomicityTest, PipelineDetectsTheDoubleSpend) {
  const workloads::Workload bank = workloads::make_bank_atomicity();
  core::Pipeline pipeline(bank.pipeline_options());
  const core::PipelineResult result = pipeline.run(bank.target());
  EXPECT_GE(result.counts.raw_reports, 1u);
  EXPECT_GE(result.counts.remaining, 1u);
  EXPECT_TRUE(bank.attack_detected(result))
      << "vuln=" << result.counts.vulnerability_reports
      << " attacks=" << result.attacks.size();
}

TEST(BankAtomicityTest, ExploitDoubleSpends) {
  const workloads::Workload bank = workloads::make_bank_atomicity();
  unsigned hits = 0;
  for (unsigned i = 0; i < 10; ++i) {
    auto machine = bank.make_machine(bank.exploit_inputs);
    interp::RandomScheduler sched(100 + i);
    machine->run(sched);
    if (bank.attack_succeeded(*machine)) ++hits;
  }
  EXPECT_GE(hits, 5u);
  // Benchmark-style small withdrawals never steal anything.
  for (unsigned i = 0; i < 10; ++i) {
    auto machine = bank.make_machine(bank.testing_inputs);
    interp::RandomScheduler sched(200 + i);
    machine->run(sched);
    EXPECT_FALSE(bank.attack_succeeded(*machine));
  }
}

TEST(BankAtomicityTest, VerifierReproducesTheTriple) {
  const workloads::Workload bank = workloads::make_bank_atomicity();
  core::PipelineTarget target = bank.target();
  core::PipelineOptions options;
  options.enable_race_verifier = false;
  options.enable_vuln_verifier = false;
  const core::PipelineResult detection = core::Pipeline(options).run(target);
  ASSERT_GE(detection.counts.raw_reports, 1u);

  race::RaceReport report =
      detection.store.stage(core::Stage::kAfterRaceVerifier).front();
  const verify::RaceVerifier verifier;
  const verify::RaceVerifyResult vr =
      verifier.verify(report, target.factory);
  EXPECT_TRUE(vr.verified);
  EXPECT_NE(report.security_hint.find("atomicity violation reproduced"),
            std::string::npos);
}

}  // namespace
}  // namespace owl::race
