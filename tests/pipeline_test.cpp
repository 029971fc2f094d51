// Integration tests for the Fig. 3 pipeline on hand-built programs and
// ablated configurations.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"

namespace owl::core {
namespace {

std::shared_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::shared_ptr<ir::Module> m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

PipelineTarget target_for(const std::shared_ptr<ir::Module>& m,
                          std::vector<interp::Word> inputs = {}) {
  PipelineTarget t;
  t.name = m->name();
  t.module = m.get();
  t.factory = [m, inputs] {
    interp::MachineOptions options;
    options.inputs = inputs;
    auto machine = std::make_unique<interp::Machine>(*m, options);
    machine->start(m->find_function("main"));
    return machine;
  };
  return t;
}

// A miniature program with all three report classes: an adhoc sync, a
// publication race, and a vulnerable race guarding a setuid.
const char* kMixed = R"(module mixed
global @flag
global @guarded
global @pubdata
global @pubgate
global @acl
func @adhoc_setter() {
entry:
  store 5, @guarded
  io_delay 3
  store 1, @flag
  ret
}
func @adhoc_waiter() {
entry:
  jmp loop
loop:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, spin, go
spin:
  io_delay 2
  jmp loop
go:
  %v = load @guarded
  ret
}
func @pub_writer() {
entry:
  store 7, @pubdata
  store 1, @pubgate
  ret
}
func @pub_reader() {
entry:
  io_delay 150
  %g = load @pubgate
  %c = icmp eq %g, 1
  br %c, go, out
go:
  %v = load @pubdata
  ret
out:
  ret
}
func @flusher() {
entry:
  store 0, @acl
  io_delay 8
  store 1, @acl
  ret
}
func @checker() {
entry:
  io_delay 4
  %a = load @acl
  %empty = icmp eq %a, 0
  br %empty, grant, normal
grant:
  setuid 0
  ret
normal:
  ret
}
func @main() {
entry:
  %t1 = thread_create @adhoc_setter, 0
  %t2 = thread_create @adhoc_waiter, 0
  %t3 = thread_create @pub_writer, 0
  %t4 = thread_create @pub_reader, 0
  %t5 = thread_create @flusher, 0
  %t6 = thread_create @checker, 0
  thread_join %t1
  thread_join %t2
  thread_join %t3
  thread_join %t4
  thread_join %t5
  thread_join %t6
  ret
}
)";

TEST(PipelineTest, FullPipelineOnMixedProgram) {
  auto m = parse_ok(kMixed);
  Pipeline pipeline;
  const PipelineResult result = pipeline.run(target_for(m));

  // All three classes were detected raw...
  EXPECT_GE(result.counts.raw_reports, 4u);
  // ...the adhoc pair was classified and pruned on the re-run...
  EXPECT_EQ(result.counts.adhoc_syncs, 1u);
  EXPECT_LT(result.counts.after_annotation, result.counts.raw_reports);
  // ...the publication race died at the race verifier...
  EXPECT_GE(result.counts.verifier_eliminated, 1u);
  // ...and the ACL race survived into vulnerability analysis.
  EXPECT_GE(result.counts.remaining, 1u);
  EXPECT_GE(result.counts.vulnerability_reports, 1u);

  // The attack (unauthorized setuid under the empty-ACL branch) is found
  // and realized by the dynamic vulnerability verifier.
  ASSERT_GE(result.attacks.size(), 1u);
  EXPECT_GE(result.confirmed_attacks(), 1u);
  bool setuid_attack = false;
  for (const ConcurrencyAttack& attack : result.attacks) {
    if (attack.exploit.site->opcode() == ir::Opcode::kSetUid &&
        attack.confirmed()) {
      setuid_attack = true;
      ir::NameTable names;
      EXPECT_FALSE(attack.to_string(names).empty());
    }
  }
  EXPECT_TRUE(setuid_attack);

  // Stage snapshots are recorded.
  EXPECT_TRUE(result.store.has_stage(Stage::kRawDetection));
  EXPECT_TRUE(result.store.has_stage(Stage::kAfterAnnotation));
  EXPECT_TRUE(result.store.has_stage(Stage::kAfterRaceVerifier));
  EXPECT_EQ(result.store.stage(Stage::kAfterRaceVerifier).size(),
            result.counts.remaining);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(PipelineTest, AblationWithoutAnnotationKeepsAdhocReports) {
  auto m = parse_ok(kMixed);
  PipelineOptions options;
  options.enable_adhoc_annotation = false;
  Pipeline pipeline(options);
  const PipelineResult result = pipeline.run(target_for(m));
  EXPECT_EQ(result.counts.adhoc_syncs, 0u);
  EXPECT_EQ(result.counts.after_annotation, result.counts.raw_reports);
}

TEST(PipelineTest, AblationWithoutRaceVerifierKeepsEverything) {
  auto m = parse_ok(kMixed);
  PipelineOptions options;
  options.enable_race_verifier = false;
  Pipeline pipeline(options);
  const PipelineResult result = pipeline.run(target_for(m));
  EXPECT_EQ(result.counts.verifier_eliminated, 0u);
  EXPECT_EQ(result.counts.remaining, result.counts.after_annotation);
}

TEST(PipelineTest, AblationWithoutVulnVerifierYieldsNoAttacks) {
  auto m = parse_ok(kMixed);
  PipelineOptions options;
  options.enable_vuln_verifier = false;
  Pipeline pipeline(options);
  const PipelineResult result = pipeline.run(target_for(m));
  EXPECT_TRUE(result.attacks.empty());
  // The static hints are still produced.
  EXPECT_GE(result.counts.vulnerability_reports, 1u);
}

TEST(PipelineTest, RaceFreeProgramIsCompletelyQuiet) {
  auto m = parse_ok(R"(module quiet
global @mu
global @x
func @w() {
entry:
  lock @mu
  store 1, @x
  unlock @mu
  ret
}
func @main() {
entry:
  %a = thread_create @w, 0
  %b = thread_create @w, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  Pipeline pipeline;
  const PipelineResult result = pipeline.run(target_for(m));
  EXPECT_EQ(result.counts.raw_reports, 0u);
  EXPECT_EQ(result.counts.vulnerability_reports, 0u);
  EXPECT_TRUE(result.attacks.empty());
}

TEST(PipelineTest, SkiDetectorPathWorks) {
  auto m = parse_ok(R"(module kern
global @f_op [1] = 77
func @msync() {
entry:
  %f = load @f_op
  %ok = icmp ne %f, 0
  br %ok, use, out
use:
  io_delay 5
  %f2 = load @f_op
  %r = callptr %f2()
  ret
out:
  ret
}
func @munmap() {
entry:
  io_delay 3
  store null, @f_op
  ret
}
func @main() {
entry:
  %a = thread_create @msync, 0
  %b = thread_create @munmap, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  PipelineTarget t = target_for(m);
  t.detector = DetectorKind::kSki;
  t.detection_schedules = 6;
  PipelineOptions options;  // kernel: no dynamic verifiers (paper §8.3)
  options.enable_race_verifier = false;
  options.enable_vuln_verifier = false;
  Pipeline pipeline(options);
  const PipelineResult result = pipeline.run(t);
  EXPECT_GE(result.counts.raw_reports, 1u);
  bool callptr_site = false;
  for (const vuln::ExploitReport& e : result.exploits) {
    callptr_site |= e.site->opcode() == ir::Opcode::kCallPtr;
  }
  EXPECT_TRUE(callptr_site);
}

TEST(PipelineTest, DeterministicPerSeed) {
  auto m = parse_ok(kMixed);
  Pipeline pipeline;
  const PipelineResult a = pipeline.run(target_for(m));
  const PipelineResult b = pipeline.run(target_for(m));
  EXPECT_EQ(a.counts.raw_reports, b.counts.raw_reports);
  EXPECT_EQ(a.counts.adhoc_syncs, b.counts.adhoc_syncs);
  EXPECT_EQ(a.counts.after_annotation, b.counts.after_annotation);
  EXPECT_EQ(a.counts.verifier_eliminated, b.counts.verifier_eliminated);
  EXPECT_EQ(a.counts.remaining, b.counts.remaining);
  EXPECT_EQ(a.counts.vulnerability_reports, b.counts.vulnerability_reports);
  EXPECT_EQ(a.attacks.size(), b.attacks.size());
  // Different seeds may legally differ, but the attack must survive both.
  PipelineTarget other = target_for(m);
  other.seed = 99;
  const PipelineResult c = pipeline.run(other);
  EXPECT_GE(c.counts.vulnerability_reports, 1u);
}

TEST(ReportStoreTest, StagesIndependent) {
  ReportStore store;
  EXPECT_FALSE(store.has_stage(Stage::kRawDetection));
  store.set_stage(Stage::kRawDetection, {});
  EXPECT_TRUE(store.has_stage(Stage::kRawDetection));
  EXPECT_FALSE(store.has_stage(Stage::kAfterAnnotation));
  EXPECT_TRUE(store.stage(Stage::kRawDetection).empty());
  ir::NameTable names;
  EXPECT_EQ(store.render_stage(Stage::kAfterAnnotation, names),
            "<stage not recorded>\n");
}

TEST(StageCountsTest, ReductionRatio) {
  StageCounts counts;
  EXPECT_DOUBLE_EQ(counts.reduction_ratio(), 0.0);
  counts.raw_reports = 100;
  counts.remaining = 6;
  EXPECT_DOUBLE_EQ(counts.reduction_ratio(), 0.94);
}

}  // namespace
}  // namespace owl::core
