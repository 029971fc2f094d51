// Unit tests for the §5.1 adhoc-synchronization detector and annotator.
#include <gtest/gtest.h>

#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "race/tsan_detector.hpp"
#include "sync/annotator.hpp"
#include "sync/syncfinder.hpp"
#include "core/pipeline.hpp"
#include "workloads/registry.hpp"

namespace owl::sync {
namespace {

std::unique_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  auto m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

std::vector<race::RaceReport> detect(const ir::Module& m,
                                     const race::AnnotationSet* ann = nullptr,
                                     std::uint64_t seed = 1) {
  interp::Machine machine(m, {});
  race::TsanDetector detector(ann);
  machine.add_observer(&detector);
  machine.start(m.find_function("main"));
  interp::RandomScheduler sched(seed);
  machine.run(sched);
  return detector.take_reports();
}

// Classic busy-wait: "while (!flag) ; use(data);"
const char* kBusyWait = R"(module bw
global @flag
global @data
func @setter() {
entry:
  store 1, @data
  store 1, @flag
  ret
}
func @waiter() {
entry:
  jmp loop
loop:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, spin, go
spin:
  yield
  jmp loop
go:
  %v = load @data
  ret
}
func @main() {
entry:
  %a = thread_create @setter, 0
  %b = thread_create @waiter, 0
  thread_join %a
  thread_join %b
  ret
}
)";

race::RaceReport find_report_on(const std::vector<race::RaceReport>& reports,
                                std::string_view object) {
  for (const race::RaceReport& r : reports) {
    if (r.object_name == object) return r;
  }
  ADD_FAILURE() << "no report on " << object;
  return {};
}

TEST(AdhocTest, ClassifiesBusyWaitFlag) {
  auto m = parse_ok(kBusyWait);
  auto reports = detect(*m);
  ASSERT_GE(reports.size(), 2u);  // flag pair + data pair

  const AdhocSyncDetector detector(*m);
  race::RaceReport flag_report = find_report_on(reports, "flag");
  const AdhocSyncResult result = detector.classify(flag_report);
  EXPECT_TRUE(result.is_adhoc) << result.reason;
  ASSERT_NE(result.read, nullptr);
  ASSERT_NE(result.write, nullptr);
  ASSERT_NE(result.exit_branch, nullptr);
  EXPECT_EQ(result.read->opcode(), ir::Opcode::kLoad);
  EXPECT_EQ(result.write->opcode(), ir::Opcode::kStore);
}

TEST(AdhocTest, DataPairIsNotAdhoc) {
  auto m = parse_ok(kBusyWait);
  auto reports = detect(*m);
  const AdhocSyncDetector detector(*m);
  race::RaceReport data_report = find_report_on(reports, "data");
  const AdhocSyncResult result = detector.classify(data_report);
  // The data read sits in the "go" block, outside the loop.
  EXPECT_FALSE(result.is_adhoc);
}

TEST(AdhocTest, ReadOutsideLoopRejected) {
  auto m = parse_ok(R"(module nl
global @flag
func @setter() {
entry:
  store 1, @flag
  ret
}
func @reader() {
entry:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, a, b
a:
  ret
b:
  ret
}
func @main() {
entry:
  %x = thread_create @setter, 0
  %y = thread_create @reader, 0
  thread_join %x
  thread_join %y
  ret
}
)");
  auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);
  const AdhocSyncDetector detector(*m);
  const AdhocSyncResult result = detector.classify(reports.front());
  EXPECT_FALSE(result.is_adhoc);
  EXPECT_NE(result.reason.find("not inside a loop"), std::string::npos);
}

TEST(AdhocTest, NonConstantWriteRejected) {
  auto m = parse_ok(R"(module nc
global @flag
func @setter() {
entry:
  %v = input 0
  store %v, @flag
  ret
}
func @waiter() {
entry:
  jmp loop
loop:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, loop, out
out:
  ret
}
func @main() {
entry:
  %a = thread_create @setter, 0
  %b = thread_create @waiter, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  interp::MachineOptions options;
  options.inputs = {1};
  interp::Machine machine(*m, options);
  race::TsanDetector detector_obs;
  machine.add_observer(&detector_obs);
  machine.start(m->find_function("main"));
  interp::RandomScheduler sched(1);
  machine.run(sched);
  auto reports = detector_obs.take_reports();
  ASSERT_GE(reports.size(), 1u);
  const AdhocSyncDetector detector(*m);
  const AdhocSyncResult result = detector.classify(reports.front());
  EXPECT_FALSE(result.is_adhoc);
  EXPECT_NE(result.reason.find("constant"), std::string::npos);
}

// The SSDB shape (Fig. 6): the flag-checked loop does real work — must NOT
// be classified adhoc, or OWL would prune the attack (Table 3: SSDB A.S.=0).
TEST(AdhocTest, WorkingLoopIsNotBusyWait) {
  auto m = parse_ok(R"(module ssdbish
global @quit
global @stat
func @setter() {
entry:
  store 1, @quit
  ret
}
func @cleaner() {
entry:
  jmp loop
loop:
  %q = load @quit
  %c = icmp eq %q, 0
  br %c, work, out
work:
  %s = load @stat
  %s2 = add %s, 1
  store %s2, @stat
  jmp loop
out:
  ret
}
func @main() {
entry:
  %a = thread_create @cleaner, 0
  %b = thread_create @setter, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  auto reports = detect(*m, nullptr, 5);
  const AdhocSyncDetector detector(*m);
  race::RaceReport quit_report = find_report_on(reports, "quit");
  const AdhocSyncResult result = detector.classify(quit_report);
  EXPECT_FALSE(result.is_adhoc);
  EXPECT_NE(result.reason.find("busy-wait"), std::string::npos);
}

TEST(AdhocTest, SleepingPollLoopStillCountsAsBusyWait) {
  auto m = parse_ok(R"(module sp
global @flag
func @setter() {
entry:
  io_delay 5
  store 1, @flag
  ret
}
func @waiter() {
entry:
  jmp loop
loop:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, spin, out
spin:
  io_delay 2
  jmp loop
out:
  ret
}
func @main() {
entry:
  %a = thread_create @setter, 0
  %b = thread_create @waiter, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  auto reports = detect(*m);
  ASSERT_GE(reports.size(), 1u);
  const AdhocSyncDetector detector(*m);
  const AdhocSyncResult result = detector.classify(reports.front());
  EXPECT_TRUE(result.is_adhoc) << result.reason;
}

TEST(AnnotatorTest, AnnotatesAndReRunPrunesReports) {
  auto m = parse_ok(kBusyWait);
  auto reports = detect(*m);
  const std::size_t raw_count = reports.size();
  ASSERT_GE(raw_count, 2u);

  const AnnotationOutcome outcome = annotate_adhoc_syncs(*m, reports);
  EXPECT_EQ(outcome.unique_adhoc_syncs, 1u);
  EXPECT_GE(outcome.adhoc_reports, 1u);
  EXPECT_FALSE(outcome.annotations.empty());

  // The classified report was flagged in place.
  bool any_flagged = false;
  for (const race::RaceReport& r : reports) any_flagged |= r.adhoc_sync;
  EXPECT_TRUE(any_flagged);

  // Re-running with the annotations prunes the flag pair AND the data it
  // publishes (the §5.1 benign-schedule reduction).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_TRUE(detect(*m, &outcome.annotations, seed).empty())
        << "seed " << seed;
  }
}

TEST(AnnotatorTest, UniquePairsCountedOnce) {
  auto m = parse_ok(kBusyWait);
  auto reports = detect(*m);
  // Duplicate the flag report to simulate multiple detection runs.
  reports.push_back(reports.front());
  reports.push_back(reports.front());
  const AnnotationOutcome outcome = annotate_adhoc_syncs(*m, reports);
  EXPECT_EQ(outcome.unique_adhoc_syncs, 1u);
}

TEST(AnnotationSetTest, MergeAndQueries) {
  auto m = parse_ok(kBusyWait);
  const ir::Instruction* store_flag =
      m->find_function("setter")->entry()->instructions()[1].get();
  const ir::Instruction* load_flag =
      m->find_function("waiter")->find_block("loop")->front();

  race::AnnotationSet a;
  a.add_release_store(store_flag);
  a.add_acquire_load(load_flag);
  EXPECT_TRUE(a.is_release_store(store_flag));
  EXPECT_TRUE(a.is_acquire_load(load_flag));
  EXPECT_TRUE(a.annotated(store_flag));
  EXPECT_FALSE(a.annotated(nullptr));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.pair_count(), 1u);
}

TEST(SyncFinderTest, FindsTheBusyWaitPairStatically) {
  auto m = parse_ok(kBusyWait);
  const SyncFinderResult result = syncfinder_scan(*m);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs.front().flag->name(), "flag");
  EXPECT_EQ(result.pairs.front().read->opcode(), ir::Opcode::kLoad);
  EXPECT_EQ(result.pairs.front().write->opcode(), ir::Opcode::kStore);
  EXPECT_FALSE(result.annotations.empty());
}

TEST(SyncFinderTest, OverMatchesWorkingLoops) {
  // The precision gap vs OWL's classifier (§5.1): a flag-guarded loop that
  // does real work (the SSDB shape) is still paired by the static matcher.
  auto m = parse_ok(R"(module work
global @quit
global @stat
func @setter() {
entry:
  store 1, @quit
  ret
}
func @cleaner() {
entry:
  jmp loop
loop:
  %q = load @quit
  %c = icmp eq %q, 0
  br %c, work, out
work:
  %s = load @stat
  %s2 = add %s, 1
  store %s2, @stat
  jmp loop
out:
  ret
}
func @main() {
entry:
  %a = thread_create @cleaner, 0
  %b = thread_create @setter, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  const SyncFinderResult result = syncfinder_scan(*m);
  bool matched_quit = false;
  for (const SyncFinderPair& pair : result.pairs) {
    matched_quit |= pair.flag->name() == "quit";
  }
  EXPECT_TRUE(matched_quit);  // static matching cannot tell it is not a
                              // busy-wait — OWL's classifier can
}

TEST(SyncFinderTest, RequiresRemoteConstantStore) {
  // Same-function stores and non-constant stores do not pair.
  auto m = parse_ok(R"(module nr
global @a
global @b
func @selfset() {
entry:
  jmp loop
loop:
  store 1, @a
  %v = load @a
  %c = icmp eq %v, 0
  br %c, loop, out
out:
  ret
}
func @varset(i64 %x) {
entry:
  store %x, @b
  ret
}
func @waiter() {
entry:
  jmp loop
loop:
  %v = load @b
  %c = icmp eq %v, 0
  br %c, loop, out
out:
  ret
}
func @main() {
entry:
  %a = thread_create @selfset, 0
  %b = thread_create @varset, 5
  %w = thread_create @waiter, 0
  thread_join %a
  thread_join %b
  thread_join %w
  ret
}
)");
  EXPECT_TRUE(syncfinder_scan(*m).pairs.empty());
}

TEST(SyncFinderTest, PresetAnnotationsSuppressSsdbAttackRaces) {
  // End-to-end: feeding the static matcher's annotations into the pipeline
  // prunes SSDB's attack-carrying races (the §5.1 precision argument).
  const workloads::Workload ssdb = workloads::make_ssdb({0.3});
  const SyncFinderResult statically = syncfinder_scan(*ssdb.module);
  ASSERT_GE(statically.pairs.size(), 2u);  // thread_quit AND db

  core::PipelineOptions options = ssdb.pipeline_options();
  options.preset_annotations = &statically.annotations;
  const core::PipelineResult result =
      core::Pipeline(options).run(ssdb.target());
  EXPECT_FALSE(ssdb.attack_detected(result));

  // OWL's own classifier keeps the attack.
  const core::PipelineResult owl_result =
      core::Pipeline(ssdb.pipeline_options()).run(ssdb.target());
  EXPECT_TRUE(ssdb.attack_detected(owl_result));
}

}  // namespace
}  // namespace owl::sync
