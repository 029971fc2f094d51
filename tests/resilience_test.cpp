// Unit tests for the resilience-layer primitives: Budget, RetryPolicy, and
// the deterministic FaultInjector.
#include <gtest/gtest.h>

#include "support/deadline.hpp"
#include "support/fault_injector.hpp"
#include "support/retry.hpp"

namespace owl::support {
namespace {

TEST(BudgetTest, DefaultIsUnlimited) {
  double now = 0.0;
  Budget budget(0.0, [&now] { return now; });
  budget.charge_steps(1'000'000);
  now = 1e9;
  EXPECT_FALSE(budget.exhausted());
  EXPECT_FALSE(Budget().exhausted());
  EXPECT_EQ(budget.steps_spent(), 1'000'000u);
}

TEST(BudgetTest, WallAxisExhaustsViaInjectedClock) {
  double now = 10.0;
  Budget budget(2.0, [&now] { return now; });
  EXPECT_FALSE(budget.exhausted());
  now = 11.9;
  EXPECT_FALSE(budget.exhausted());
  now = 12.5;
  EXPECT_TRUE(budget.exhausted());
  EXPECT_DOUBLE_EQ(budget.elapsed_seconds(), 2.5);
}

TEST(RetryPolicyTest, AttemptAndSeedSchedule) {
  RetryPolicy policy;
  policy.max_retries = 3;
  EXPECT_EQ(policy.max_attempts(), 4u);
  EXPECT_EQ(policy.seed_for(42, 0), 42u);
  EXPECT_EQ(policy.seed_for(42, 1), 42u + RetryPolicy::kSeedStride);
  EXPECT_EQ(policy.seed_for(42, 3), 42u + 3 * RetryPolicy::kSeedStride);
}

TEST(RetryPolicyTest, BudgetGrowsExponentially) {
  // The deadline doubles per retry; no deadline stays no deadline.
  EXPECT_EQ(RetryPolicy::deadline_for(1.5, 0), 1.5);
  EXPECT_EQ(RetryPolicy::deadline_for(1.5, 1), 3.0);
  EXPECT_EQ(RetryPolicy::deadline_for(1.5, 2), 6.0);
  EXPECT_EQ(RetryPolicy::deadline_for(1e-7, 3), 1e-7 * 2 * 2 * 2);
  EXPECT_EQ(RetryPolicy::deadline_for(0.0, 5), 0.0);
}

FaultPlan plan_of(FaultKind kind, PipelineStage stage,
                  std::string target = "") {
  FaultPlan plan;
  plan.kind = kind;
  plan.stage = stage;
  plan.target = std::move(target);
  return plan;
}

TEST(FaultInjectorTest, FiresOnlyInMatchingContext) {
  FaultInjector injector;
  injector.add_plan(plan_of(FaultKind::kSchedulerStall,
                            PipelineStage::kDetection, "apache"));

  injector.begin_target("mysql");
  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_FALSE(injector.should_stall());  // wrong target

  injector.begin_target("apache");
  injector.begin_stage(PipelineStage::kRaceVerification);
  EXPECT_FALSE(injector.should_stall());  // wrong stage

  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_TRUE(injector.should_stall());
  EXPECT_TRUE(injector.fired_in_stage(FaultKind::kSchedulerStall));
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events().front().target, "apache");
}

TEST(FaultInjectorTest, EmptyTargetMatchesAnyTarget) {
  FaultInjector injector;
  injector.add_plan(
      plan_of(FaultKind::kTruncatedEvents, PipelineStage::kDetection));
  injector.begin_target("anything");
  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_TRUE(injector.truncate_events());
}

TEST(FaultInjectorTest, AfterSkipsLeadingProbes) {
  FaultInjector injector;
  FaultPlan plan =
      plan_of(FaultKind::kSchedulerStall, PipelineStage::kDetection);
  plan.after = 3;
  injector.add_plan(plan);
  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_FALSE(injector.should_stall());
  EXPECT_FALSE(injector.should_stall());
  EXPECT_FALSE(injector.should_stall());
  EXPECT_TRUE(injector.should_stall());
  EXPECT_TRUE(injector.should_stall());
}

TEST(FaultInjectorTest, CountBoundsLifetimeFirings) {
  FaultInjector injector;
  FaultPlan plan =
      plan_of(FaultKind::kSchedulerStall, PipelineStage::kDetection);
  plan.count = 2;
  injector.add_plan(plan);
  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_TRUE(injector.should_stall());
  EXPECT_TRUE(injector.should_stall());
  EXPECT_FALSE(injector.should_stall());
  // The cap is lifetime, not per-context.
  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_FALSE(injector.should_stall());
  EXPECT_EQ(injector.fired_total(), 2u);
}

TEST(FaultInjectorTest, AfterResetsPerContext) {
  FaultInjector injector;
  FaultPlan plan =
      plan_of(FaultKind::kSchedulerStall, PipelineStage::kDetection);
  plan.after = 1;
  injector.add_plan(plan);
  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_FALSE(injector.should_stall());
  EXPECT_TRUE(injector.should_stall());
  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_FALSE(injector.should_stall());  // probe counter restarted
  EXPECT_TRUE(injector.should_stall());
}

TEST(FaultInjectorTest, EventsLoggedOncePerContext) {
  FaultInjector injector;
  injector.add_plan(
      plan_of(FaultKind::kSchedulerStall, PipelineStage::kDetection));
  injector.begin_target("t");
  injector.begin_stage(PipelineStage::kDetection);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(injector.should_stall());
  EXPECT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.fired_total(), 100u);
  injector.begin_stage(PipelineStage::kDetection);
  (void)injector.should_stall();
  EXPECT_EQ(injector.events().size(), 2u);
}

TEST(FaultInjectorTest, MaybeThrowRaisesInjectedFault) {
  FaultInjector injector;
  injector.add_plan(
      plan_of(FaultKind::kStageException, PipelineStage::kVulnAnalysis, "c"));
  injector.begin_target("c");
  injector.begin_stage(PipelineStage::kVulnAnalysis);
  EXPECT_THROW(injector.maybe_throw(), InjectedFault);
  injector.begin_stage(PipelineStage::kDetection);
  EXPECT_NO_THROW(injector.maybe_throw());
}

}  // namespace
}  // namespace owl::support
