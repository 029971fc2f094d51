// Integration tests for the resilience layer: a multi-target pipeline run
// with injected scheduler stalls, verifier livelocks, stage exceptions, and
// truncated event streams. The run must complete, unaffected targets must
// match a fault-free run bit for bit, and affected targets must carry
// structured FailureRecords naming the right stage and cause.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"

namespace owl::core {
namespace {

using support::FailureCause;
using support::FaultInjector;
using support::FaultKind;
using support::FaultPlan;
using support::PipelineStage;

std::shared_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::shared_ptr<ir::Module> m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

PipelineTarget target_for(const std::shared_ptr<ir::Module>& m,
                          std::uint64_t seed) {
  PipelineTarget t;
  t.name = m->name();
  t.module = m.get();
  t.factory = [m] {
    interp::MachineOptions options;
    options.max_steps = 50'000;
    auto machine = std::make_unique<interp::Machine>(*m, options);
    machine->start(m->find_function("main"));
    return machine;
  };
  t.seed = seed;
  return t;
}

/// A steady unprotected write/read race — one raw report, verifiable.
std::string steady_race(const char* name) {
  return std::string("module ") + name + R"(
global @x
func @writer() {
entry:
  store 7, @x
  ret
}
func @reader() {
entry:
  %v = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @reader, 0
  thread_join %a
  thread_join %b
  ret
}
)";
}

/// A race whose racing moment needs the §5.2 livelock release: the writer's
/// racy store sits inside the critical section of the mutex the reader must
/// acquire first, so parking the writer blocks the reader.
std::string lock_livelock_race(const char* name) {
  return std::string("module ") + name + R"(
global @x
global @mu
func @writer() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  lock @mu
  store %i, @x
  unlock @mu
  io_delay 6
  %n = add %i, 1
  %c = icmp slt %n, 40
  br %c, loop, out
out:
  ret
}
func @reader() {
entry:
  io_delay 50
  lock @mu
  unlock @mu
  %v = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @reader, 0
  thread_join %a
  thread_join %b
  ret
}
)";
}

bool has_failure(const StageCounts& counts, PipelineStage stage,
                 FailureCause cause) {
  for (const support::FailureRecord& record : counts.failures) {
    if (record.stage == stage && record.cause == cause) return true;
  }
  return false;
}

void expect_same_counts(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.counts.raw_reports, b.counts.raw_reports);
  EXPECT_EQ(a.counts.adhoc_syncs, b.counts.adhoc_syncs);
  EXPECT_EQ(a.counts.after_annotation, b.counts.after_annotation);
  EXPECT_EQ(a.counts.verifier_eliminated, b.counts.verifier_eliminated);
  EXPECT_EQ(a.counts.remaining, b.counts.remaining);
  EXPECT_EQ(a.counts.vulnerability_reports, b.counts.vulnerability_reports);
  EXPECT_EQ(a.exploits.size(), b.exploits.size());
  EXPECT_EQ(a.attacks.size(), b.attacks.size());
  EXPECT_EQ(a.confirmed_attacks(), b.confirmed_attacks());
}

TEST(FaultInjectionTest, MultiTargetRunDegradesOnlyFaultedTargets) {
  // Five targets; faults scoped by name to three distinct stages plus a
  // truncated event stream. D stays fault-free as the control.
  auto ma = parse_ok(steady_race("A"));
  auto mb = parse_ok(lock_livelock_race("B"));
  auto mc = parse_ok(steady_race("C"));
  auto md = parse_ok(steady_race("D"));
  auto me = parse_ok(steady_race("E"));
  const std::vector<PipelineTarget> targets = {
      target_for(ma, 11), target_for(mb, 22), target_for(mc, 33),
      target_for(md, 44), target_for(me, 55)};

  FaultInjector injector;
  injector.add_plan(
      {FaultKind::kSchedulerStall, PipelineStage::kDetection, "A"});
  injector.add_plan(
      {FaultKind::kBreakpointLivelock, PipelineStage::kRaceVerification, "B"});
  injector.add_plan(
      {FaultKind::kStageException, PipelineStage::kVulnAnalysis, "C"});
  injector.add_plan(
      {FaultKind::kTruncatedEvents, PipelineStage::kDetection, "E"});

  PipelineOptions faulted_options;
  faulted_options.fault_injector = &injector;
  const std::vector<PipelineResult> faulted =
      Pipeline(faulted_options).run_many(targets);

  const std::vector<PipelineResult> clean = Pipeline().run_many(targets);

  ASSERT_EQ(faulted.size(), 5u);
  ASSERT_EQ(clean.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(faulted[i].target_name, targets[i].name);
  }

  // A: the stall burned every detection schedule's max_steps.
  const PipelineResult& a = faulted[0];
  EXPECT_TRUE(a.degraded());
  EXPECT_TRUE(has_failure(a.counts, PipelineStage::kDetection,
                          FailureCause::kSchedulerStall));
  EXPECT_EQ(a.counts.raw_reports, 0u);  // stalled runs execute nothing

  // B: every racing-moment attempt livelocked (the injected breakpoint
  // livelock defeats the release rule); the report passes through
  // unverified instead of being silently eliminated.
  const PipelineResult& b = faulted[1];
  EXPECT_TRUE(b.degraded());
  EXPECT_TRUE(has_failure(b.counts, PipelineStage::kRaceVerification,
                          FailureCause::kLivelock));
  EXPECT_GE(b.counts.remaining, 1u);

  // C: vulnerability analysis threw on every report.
  const PipelineResult& c = faulted[2];
  EXPECT_TRUE(c.degraded());
  EXPECT_TRUE(has_failure(c.counts, PipelineStage::kVulnAnalysis,
                          FailureCause::kException));
  EXPECT_EQ(c.counts.vulnerability_reports, 0u);

  // D: untouched by any plan — identical to the fault-free run.
  const PipelineResult& d = faulted[3];
  EXPECT_FALSE(d.degraded());
  EXPECT_EQ(d.counts.resilience_summary(), "ok");
  expect_same_counts(d, clean[3]);
  EXPECT_GE(d.counts.raw_reports, 1u);  // the control actually detects

  // E: the truncated event stream starved the detector.
  const PipelineResult& e = faulted[4];
  EXPECT_TRUE(e.degraded());
  EXPECT_TRUE(has_failure(e.counts, PipelineStage::kDetection,
                          FailureCause::kTruncatedEvents));
  EXPECT_EQ(e.counts.raw_reports, 0u);
  EXPECT_EQ(clean[4].counts.raw_reports, clean[3].counts.raw_reports);
}

TEST(FaultInjectionTest, DetectionExceptionRetriesThenSucceeds) {
  // One injected exception with count=1: the first detection attempt
  // throws, the retry (fresh seed) completes, and the target is NOT
  // degraded — a flaky schedule costs a retry, not the target.
  auto m = parse_ok(steady_race("flaky"));
  FaultInjector injector;
  FaultPlan plan{FaultKind::kStageException, PipelineStage::kDetection,
                 "flaky"};
  plan.count = 1;
  injector.add_plan(plan);

  PipelineOptions options;
  options.fault_injector = &injector;
  const PipelineResult result = Pipeline(options).run(target_for(m, 7));
  EXPECT_FALSE(result.degraded());
  EXPECT_GE(result.counts.retries_used, 1u);
  EXPECT_GE(result.counts.raw_reports, 1u);
}

TEST(FaultInjectionTest, ExhaustedRetriesRecordExceptionAndContinue) {
  // The exception plan never stops firing: every detection attempt dies,
  // the stage records kException with the retry count, and the later
  // stages still run (on an empty report set) instead of crashing.
  auto m = parse_ok(steady_race("doomed"));
  FaultInjector injector;
  injector.add_plan(
      {FaultKind::kStageException, PipelineStage::kDetection, "doomed"});

  PipelineOptions options;
  options.fault_injector = &injector;
  options.retry.max_retries = 1;
  const PipelineResult result = Pipeline(options).run(target_for(m, 7));
  EXPECT_TRUE(result.degraded());
  EXPECT_TRUE(has_failure(result.counts, PipelineStage::kDetection,
                          FailureCause::kException));
  EXPECT_EQ(result.counts.raw_reports, 0u);
  EXPECT_EQ(result.counts.remaining, 0u);
  EXPECT_TRUE(result.attacks.empty());
}

TEST(FaultInjectionTest, ThrowingFactoryIsolatedAtDriverLevel) {
  auto ok = parse_ok(steady_race("healthy"));
  auto bad = parse_ok(steady_race("broken"));
  PipelineTarget broken = target_for(bad, 3);
  broken.factory = []() -> std::unique_ptr<interp::Machine> {
    throw std::runtime_error("machine factory exploded");
  };

  const std::vector<PipelineResult> results =
      Pipeline().run_many({broken, target_for(ok, 4)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].degraded());
  // detect() absorbs the throw stage-side, so the record lands on the
  // detection stage; a throw outside any stage would land on kDriver.
  EXPECT_TRUE(
      has_failure(results[0].counts, PipelineStage::kDetection,
                  FailureCause::kException) ||
      has_failure(results[0].counts, PipelineStage::kDriver,
                  FailureCause::kException));
  EXPECT_FALSE(results[1].degraded());
  EXPECT_GE(results[1].counts.raw_reports, 1u);
}

TEST(FaultInjectionTest, WallClockDeadlineDegradesStalledStage) {
  // A permanent stall with an (injected-clock-free) tiny wall deadline: the
  // detection stage must trip its deadline even though the stall produces
  // steps, and the pipeline must still return.
  auto m = parse_ok(steady_race("slow"));
  FaultInjector injector;
  injector.add_plan(
      {FaultKind::kSchedulerStall, PipelineStage::kDetection, "slow"});

  PipelineOptions options;
  options.fault_injector = &injector;
  options.stage_deadline = 0.05;
  const PipelineResult result = Pipeline(options).run(target_for(m, 9));
  EXPECT_TRUE(result.degraded());
  EXPECT_TRUE(has_failure(result.counts, PipelineStage::kDetection,
                          FailureCause::kWallClockExhausted) ||
              has_failure(result.counts, PipelineStage::kDetection,
                          FailureCause::kSchedulerStall));
}

}  // namespace
}  // namespace owl::core
