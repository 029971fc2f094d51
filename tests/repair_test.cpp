// Tests for automated race repair (DESIGN.md §13): transform-layer
// round-trip stability, planner strategy selection on hand-built modules,
// verification-gate rejection of a deadlocking candidate, end-to-end
// repair of the shipped examples, jobs=1-vs-jobs=4 and off-mode
// byte-identity, and fault-injection degradation of the repair stage.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static_info.hpp"
#include "core/pipeline.hpp"
#include "core/render.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/transform.hpp"
#include "ir/verifier.hpp"
#include "repair/engine.hpp"
#include "repair/planner.hpp"
#include "support/fault_injector.hpp"
#include "support/metrics.hpp"

namespace owl::repair {
namespace {

std::shared_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::shared_ptr<ir::Module> m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

std::shared_ptr<ir::Module> load_example(const std::string& name) {
  std::ifstream in(std::filesystem::path(OWL_EXAMPLES_DIR) / name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_ok(text.str());
}

/// Pipeline target with both the plain factory and the module-agnostic
/// factory hook the repair engine needs, wired like owl_cli does.
core::PipelineTarget target_for(const std::shared_ptr<ir::Module>& m,
                                const std::string& name) {
  core::PipelineTarget t;
  t.name = name;
  t.module = m.get();
  t.factory = [m] {
    auto machine =
        std::make_unique<interp::Machine>(*m, interp::MachineOptions{});
    machine->start(m->find_function("main"));
    return machine;
  };
  t.factory_for_module = [](std::shared_ptr<const ir::Module> patched) {
    return interp::MachineFactory([patched] {
      auto machine =
          std::make_unique<interp::Machine>(*patched,
                                            interp::MachineOptions{});
      machine->start(patched->find_function("main"));
      return machine;
    });
  };
  return t;
}

const ir::Instruction* instr_at(const ir::Module& m, const std::string& func,
                                std::size_t index) {
  const ir::Function* f = m.find_function(func);
  EXPECT_NE(f, nullptr) << func;
  return f->blocks().front()->instructions()[index].get();
}

race::RaceReport confirmed_pair(const ir::Instruction* first,
                                const ir::Instruction* second,
                                const std::string& object) {
  race::RaceReport report;
  report.first.instr = first;
  report.second.instr = second;
  report.object_name = object;
  report.verified = true;
  return report;
}

// --- ir/transform ----------------------------------------------------------

constexpr std::string_view kRacyPair = R"(
module racy
global @x [1] = 0

func @a() {
entry:
  store 1, @x                     !a.c:1
  ret
}

func @b() {
entry:
  store 2, @x                     !b.c:1
  ret
}

func @main() {
entry:
  %t1 = thread_create @a, 0
  %t2 = thread_create @b, 0
  thread_join %t1
  thread_join %t2
  ret
}
)";

TEST(TransformTest, CloneIsCanonicalAndIndependent) {
  auto m = parse_ok(kRacyPair);
  auto clone = ir::clone_module(*m);
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(ir::print_module(*m), ir::print_module(*clone));
  // Editing the clone leaves the original untouched.
  ASSERT_NE(ir::add_mutex_global(*clone, "__owl_fix"), nullptr);
  EXPECT_EQ(m->find_global("__owl_fix"), nullptr);
  EXPECT_NE(clone->find_global("__owl_fix"), nullptr);
}

TEST(TransformTest, GuardRangeRoundTripsThroughPrintAndParse) {
  auto m = parse_ok(kRacyPair);
  auto patched = ir::clone_module(*m);
  ASSERT_NE(ir::add_mutex_global(*patched, "__owl_fix"), nullptr);
  ASSERT_TRUE(ir::guard_range(*patched, {"a", "entry", 0}, 0, "__owl_fix"));
  ASSERT_TRUE(ir::guard_range(*patched, {"b", "entry", 0}, 0, "__owl_fix"));

  // Parse(print(patched)) must verify and re-print byte-identically: the
  // emitted *_fixed.mir is this very text.
  const std::string text = ir::print_module(*patched);
  auto reparsed = parse_ok(text);
  EXPECT_EQ(ir::print_module(*reparsed), text);

  // The guard really is lock; store; unlock.
  const ir::Function* a = reparsed->find_function("a");
  ASSERT_NE(a, nullptr);
  const auto& instrs = a->blocks().front()->instructions();
  ASSERT_GE(instrs.size(), 4u);
  EXPECT_EQ(instrs[0]->opcode(), ir::Opcode::kLock);
  EXPECT_EQ(instrs[1]->opcode(), ir::Opcode::kStore);
  EXPECT_EQ(instrs[2]->opcode(), ir::Opcode::kUnlock);
}

TEST(TransformTest, GuardRangeRejectsTerminatorAndBadCoords) {
  auto m = parse_ok(kRacyPair);
  auto patched = ir::clone_module(*m);
  ASSERT_NE(ir::add_mutex_global(*patched, "__owl_fix"), nullptr);
  // Range covering `ret` (index 1) is rejected.
  EXPECT_FALSE(ir::guard_range(*patched, {"a", "entry", 0}, 1, "__owl_fix"));
  EXPECT_FALSE(ir::guard_range(*patched, {"nope", "entry", 0}, 0,
                               "__owl_fix"));
  EXPECT_FALSE(ir::guard_range(*patched, {"a", "entry", 0}, 0, "no_mutex"));
}

TEST(TransformTest, MoveAfterHandlesSameBlockShift) {
  auto m = parse_ok(R"(
module mv
global @g [1] = 0

func @main() {
entry:
  %t = thread_create @w, 0
  store 7, @g
  thread_join %t
  ret
}

func @w() {
entry:
  %v = load @g
  ret
}
)");
  auto patched = ir::clone_module(*m);
  // Move the store (index 1) after the join (index 2).
  ASSERT_TRUE(ir::move_after(*patched, {"main", "entry", 1},
                             {"main", "entry", 2}));
  const auto& instrs =
      patched->find_function("main")->blocks().front()->instructions();
  EXPECT_EQ(instrs[0]->opcode(), ir::Opcode::kThreadCreate);
  EXPECT_EQ(instrs[1]->opcode(), ir::Opcode::kThreadJoin);
  EXPECT_EQ(instrs[2]->opcode(), ir::Opcode::kStore);
  // And the result still round-trips.
  const std::string text = ir::print_module(*patched);
  EXPECT_EQ(ir::print_module(*parse_ok(text)), text);
}

TEST(TransformTest, AddMutexGlobalAvoidsCollisions) {
  auto m = parse_ok(kRacyPair);
  auto clone = ir::clone_module(*m);
  ir::GlobalVariable* first = ir::add_mutex_global(*clone, "x");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->name(), "x_2");  // @x exists already
}

// --- repair/planner --------------------------------------------------------

TEST(RepairPlannerTest, LockInsertIsTheFallbackAndCoversAllObjectAccesses) {
  auto m = parse_ok(kRacyPair);
  analysis::ModuleStatic statics(*m);
  RepairPlanner planner(*m, statics);
  const auto candidates = planner.plan({confirmed_pair(
      instr_at(*m, "a", 0), instr_at(*m, "b", 0), "x")});
  ASSERT_EQ(candidates.size(), 1u);  // no locks, nothing movable
  EXPECT_EQ(candidates[0].strategy, Strategy::kLockInsert);
  EXPECT_EQ(candidates[0].lock, "__owl_fix");
  ASSERT_EQ(candidates[0].guards.size(), 2u);
}

TEST(RepairPlannerTest, LockReusePrefersAnExistingProtectingLock) {
  auto m = parse_ok(R"(
module reuse
global @x [1] = 0
global @m [1] = 0

func @safe() {
entry:
  lock @m
  %v = load @x                    !s.c:1
  unlock @m
  ret
}

func @a() {
entry:
  store 1, @x                     !a.c:1
  ret
}

func @b() {
entry:
  store 2, @x                     !b.c:1
  ret
}

func @main() {
entry:
  %t1 = thread_create @a, 0
  %t2 = thread_create @b, 0
  thread_join %t1
  thread_join %t2
  ret
}
)");
  analysis::ModuleStatic statics(*m);
  RepairPlanner planner(*m, statics);
  const auto candidates = planner.plan({confirmed_pair(
      instr_at(*m, "a", 0), instr_at(*m, "b", 0), "x")});
  ASSERT_GE(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].strategy, Strategy::kLockReuse);
  EXPECT_EQ(candidates[0].lock, "m");
  // The evidence site in @safe already holds @m and must NOT be guarded
  // again (self-deadlock); the two racy stores must be.
  for (const GuardSpan& span : candidates[0].guards) {
    EXPECT_NE(span.first.function, "safe") << span.first.to_string();
  }
  EXPECT_EQ(candidates.back().strategy, Strategy::kLockInsert);
}

TEST(RepairPlannerTest, RelocatePlannedForMovableSpawnWindowStore) {
  auto m = load_example("spawn_window.mir");
  analysis::ModuleStatic statics(*m);
  RepairPlanner planner(*m, statics);
  const auto candidates = planner.plan({confirmed_pair(
      instr_at(*m, "worker", 0), instr_at(*m, "main", 1), "progress")});
  ASSERT_GE(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].strategy, Strategy::kRelocate);
  ASSERT_EQ(candidates[0].moves.size(), 1u);
  EXPECT_EQ(candidates[0].moves[0].from,
            (ir::InstrCoord{"main", "entry", 1}));
  EXPECT_EQ(candidates[0].moves[0].after,
            (ir::InstrCoord{"main", "entry", 2}));
}

// --- repair/engine gates ---------------------------------------------------

core::PipelineOptions repair_options() {
  core::PipelineOptions options;
  options.jobs = 1;
  options.repair = true;
  return options;
}

TEST(RepairEngineTest, RepairsTheLostUpdateExample) {
  auto m = load_example("lost_update.mir");
  const auto results = core::Pipeline(repair_options())
                           .run_many({target_for(m, "lost_update.mir")});
  ASSERT_EQ(results.size(), 1u);
  const RepairReport& repair = results[0].repair;
  EXPECT_TRUE(results[0].counts.repair_ran);
  EXPECT_EQ(repair.status, "repaired");
  EXPECT_EQ(repair.strategy, "lock_insert");
  EXPECT_EQ(repair.lock, "__owl_fix");
  EXPECT_EQ(repair.fixed_module, "lost_update_fixed.mir");
  EXPECT_TRUE(repair.gate_race_free);
  EXPECT_TRUE(repair.gate_no_new_findings);
  EXPECT_TRUE(repair.gate_output_equal);
  EXPECT_FALSE(repair.patched_text.empty());
  // The patch parses, verifies, and is already canonical.
  auto fixed = parse_ok(repair.patched_text);
  EXPECT_EQ(ir::print_module(*fixed), repair.patched_text);
  support::metrics().reset();
}

TEST(RepairEngineTest, GatesRejectADeadlockingCandidate) {
  // The only plannable candidate here is a fresh-lock guard over main's
  // span of @slot accesses — which includes the thread_join, so the
  // patched module deadlocks (main holds the lock across the join while
  // the worker needs it). The output-equivalence gate must notice and the
  // report must come back unrepaired rather than shipping a deadlock.
  // (The store's value is computed, so relocation is not plannable.)
  auto m = parse_ok(R"(
module wedge
global @slot [1] = 0

func @worker() {
entry:
  %v = load @slot                 !w.c:1
  ret
}

func @main() {
entry:
  %t = thread_create @worker, 0
  %x = load @slot                 !m.c:1
  %y = add %x, 1
  store %y, @slot                 !m.c:2
  thread_join %t
  %z = load @slot                 !m.c:3
  print %z
  ret
}
)");
  const auto results =
      core::Pipeline(repair_options()).run_many({target_for(m, "wedge.mir")});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].counts.repair_ran);
  const RepairReport& repair = results[0].repair;
  ASSERT_GT(results[0].counts.remaining, 0u)
      << "planted race was not confirmed; the gate test needs it";
  EXPECT_EQ(repair.status, "unrepaired");
  EXPECT_GE(repair.candidates_tried, 1u);
  EXPECT_FALSE(repair.gate_output_equal);
  EXPECT_TRUE(repair.patched_text.empty());
  support::metrics().reset();
}

TEST(RepairEngineTest, NoRacesShortCircuits) {
  auto m = load_example("lock_cycle.mir");
  const auto results = core::Pipeline(repair_options())
                           .run_many({target_for(m, "lock_cycle.mir")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].counts.repair_ran);
  EXPECT_EQ(results[0].repair.status, "no_races");
  EXPECT_EQ(results[0].repair.candidates_tried, 0u);
  support::metrics().reset();
}

TEST(RepairEngineTest, MissingModuleFactoryDegradesTheStage) {
  auto m = load_example("lost_update.mir");
  core::PipelineTarget target = target_for(m, "lost_update.mir");
  target.factory_for_module = nullptr;  // serve/CLI always set it; a bare
                                        // library caller might not
  const auto results =
      core::Pipeline(repair_options()).run_many({target});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].counts.repair_ran);
  EXPECT_TRUE(results[0].degraded());
  EXPECT_EQ(results[0].repair.status, "unrepaired");
  ASSERT_FALSE(results[0].counts.failures.empty());
  EXPECT_EQ(results[0].counts.failures[0].stage,
            support::PipelineStage::kRepair);
  support::metrics().reset();
}

// --- byte-identity ---------------------------------------------------------

TEST(RepairPipelineTest, JobsOneVersusFourIsByteIdentical) {
  const std::vector<std::string> names = {"lost_update.mir",
                                          "spawn_window.mir",
                                          "double_unlock.mir"};
  std::string rendered[2];
  for (int i = 0; i < 2; ++i) {
    std::vector<std::shared_ptr<ir::Module>> modules;
    std::vector<core::PipelineTarget> targets;
    for (const std::string& name : names) {
      modules.push_back(load_example(name));
      targets.push_back(target_for(modules.back(), name));
    }
    core::PipelineOptions options = repair_options();
    options.jobs = i == 0 ? 1 : 4;
    const auto results = core::Pipeline(options).run_many(targets);
    for (const core::PipelineResult& result : results) {
      rendered[i] += core::serialize_result(result);
      rendered[i] += core::render_cli_summary(result);
      rendered[i] += core::render_cli_details(result, true);
    }
    support::metrics().reset();
  }
  EXPECT_EQ(rendered[0], rendered[1]);
}

TEST(RepairPipelineTest, OffModeNeverMentionsRepair) {
  auto m = load_example("lost_update.mir");
  core::PipelineOptions options;
  options.jobs = 1;  // repair stays default-off
  const auto results = core::Pipeline(options)
                           .run_many({target_for(m, "lost_update.mir")});
  ASSERT_EQ(results.size(), 1u);
  const core::PipelineResult& result = results[0];
  EXPECT_FALSE(result.counts.repair_ran);
  EXPECT_TRUE(result.repair.status.empty());
  for (const std::string& rendered :
       {core::serialize_result(result), core::render_cli_summary(result),
        core::render_cli_details(result, true),
        result.counts.serialize()}) {
    EXPECT_EQ(rendered.find("repair"), std::string::npos);
  }
  EXPECT_EQ(support::metrics().serialize().find("repair"),
            std::string::npos);
  support::metrics().reset();
}

// --- fault injection -------------------------------------------------------

TEST(RepairFaultTest, InjectedThrowDegradesNotDies) {
  auto m = load_example("lost_update.mir");
  support::FaultInjector injector;
  support::FaultPlan plan;
  ASSERT_TRUE(support::parse_fault_plan("repair:throw", plan));
  EXPECT_EQ(plan.stage, support::PipelineStage::kRepair);
  injector.add_plan(plan);
  core::PipelineOptions options = repair_options();
  options.fault_injector = &injector;
  const auto results = core::Pipeline(options)
                           .run_many({target_for(m, "lost_update.mir")});
  ASSERT_EQ(results.size(), 1u);
  const core::PipelineResult& result = results[0];
  EXPECT_TRUE(result.counts.repair_ran);
  EXPECT_TRUE(result.degraded());
  EXPECT_EQ(result.repair.status, "unrepaired");
  ASSERT_FALSE(result.counts.failures.empty());
  EXPECT_EQ(result.counts.failures[0].stage,
            support::PipelineStage::kRepair);
  EXPECT_EQ(result.counts.failures[0].cause,
            support::FailureCause::kException);
  // The verified races from the earlier stages survive degradation.
  EXPECT_GT(result.counts.remaining, 0u);
  support::metrics().reset();
}

}  // namespace
}  // namespace owl::repair
