// Unit tests for the resilience-layer primitives: Budget/BudgetSpec,
// RetryPolicy, and the deterministic FaultInjector.
#include <gtest/gtest.h>

#include "support/deadline.hpp"
#include "support/fault_injector.hpp"
#include "support/retry.hpp"

namespace owl::support {
namespace {

TEST(BudgetTest, DefaultIsUnlimited) {
  Budget budget;
  budget.charge_steps(1'000'000);
  EXPECT_FALSE(budget.exhausted());
  EXPECT_FALSE(budget.exhausted_by().has_value());
}

TEST(BudgetTest, StepAxisExhausts) {
  BudgetSpec spec;
  spec.steps = 100;
  Budget budget(spec);
  budget.charge_steps(99);
  EXPECT_FALSE(budget.exhausted());
  budget.charge_steps(1);
  ASSERT_TRUE(budget.exhausted_by().has_value());
  EXPECT_EQ(*budget.exhausted_by(), FailureCause::kStepBudgetExhausted);
  EXPECT_EQ(budget.steps_spent(), 100u);
}

TEST(BudgetTest, WallAxisExhaustsViaInjectedClock) {
  double now = 10.0;
  BudgetSpec spec;
  spec.wall_seconds = 2.0;
  Budget budget(spec, [&now] { return now; });
  EXPECT_FALSE(budget.exhausted());
  now = 11.9;
  EXPECT_FALSE(budget.exhausted());
  now = 12.5;
  ASSERT_TRUE(budget.exhausted_by().has_value());
  EXPECT_EQ(*budget.exhausted_by(), FailureCause::kWallClockExhausted);
  EXPECT_DOUBLE_EQ(budget.elapsed_seconds(), 2.5);
}

TEST(BudgetTest, WallCheckedBeforeSteps) {
  // A stalled (zero-progress) stage must still trip its deadline, and when
  // both axes are out the wall clock is the reported cause.
  double now = 0.0;
  BudgetSpec spec;
  spec.wall_seconds = 1.0;
  spec.steps = 10;
  Budget budget(spec, [&now] { return now; });
  budget.charge_steps(10);
  now = 5.0;
  EXPECT_EQ(*budget.exhausted_by(), FailureCause::kWallClockExhausted);
}

TEST(BudgetSpecTest, GrownScalesBothAxesAndKeepsUnlimited) {
  BudgetSpec spec;
  spec.wall_seconds = 1.5;
  spec.steps = 100;
  const BudgetSpec grown = spec.grown(2.0);
  EXPECT_DOUBLE_EQ(grown.wall_seconds, 3.0);
  EXPECT_EQ(grown.steps, 200u);

  const BudgetSpec unlimited = BudgetSpec{}.grown(2.0);
  EXPECT_TRUE(unlimited.unlimited());
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
  const RetryPolicy policy;
  BudgetSpec base;
  base.steps = 100;
  EXPECT_EQ(policy.budget_for(base, 0).steps, 100u);
  EXPECT_EQ(policy.budget_for(base, 1).steps, 200u);
  EXPECT_EQ(policy.budget_for(base, 2).steps, 400u);
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

TEST(FaultInjectorTest, ProbabilityDilutionIsSeedDeterministic) {
  const auto firing_pattern = [](std::uint64_t seed) {
    FaultInjector injector(seed);
    FaultPlan plan =
        plan_of(FaultKind::kSchedulerStall, PipelineStage::kDetection);
    plan.probability_percent = 50;
    injector.add_plan(plan);
    injector.begin_stage(PipelineStage::kDetection);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(injector.should_stall());
    return fired;
  };
  EXPECT_EQ(firing_pattern(7), firing_pattern(7));
  // 64 draws at 50%: all-equal across different seeds would mean the seed
  // is ignored (probability 2^-64 otherwise).
  EXPECT_NE(firing_pattern(7), firing_pattern(8));
}

}  // namespace
}  // namespace owl::support
