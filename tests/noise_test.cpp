// Property tests for the noise generators: each benign-race class must be
// pruned by exactly the pipeline stage that prunes its real-world
// counterpart (this is what makes the Table 1/3 shapes emergent rather
// than hard-coded — see EXPERIMENTS.md "substitution caveats").
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "ir/verifier.hpp"
#include "ir/builder.hpp"
#include "workloads/noise.hpp"
#include "workloads/workload.hpp"

namespace owl::workloads {
namespace {

/// Builds a module containing only the given noise plus a main spawning it.
std::shared_ptr<ir::Module> noise_module(const NoiseSpec& spec) {
  auto module = std::make_shared<ir::Module>("noise_only");
  const std::vector<ir::Function*> entries = add_noise(*module, spec);
  ir::IRBuilder b(module.get());
  ir::Function* main_fn = module->add_function("main", ir::Type::void_type());
  b.set_insert_point(main_fn->add_block("entry"));
  std::vector<ir::Instruction*> tids;
  for (ir::Function* entry : entries) {
    tids.push_back(b.thread_create(entry, b.i64(0)));
  }
  for (ir::Instruction* tid : tids) b.thread_join(tid);
  b.ret();
  EXPECT_TRUE(ir::verify_module(*module).is_ok());
  return module;
}

core::PipelineResult run_noise(const NoiseSpec& spec,
                               core::PipelineOptions options = {}) {
  std::shared_ptr<ir::Module> module = noise_module(spec);
  core::PipelineTarget target;
  target.name = "noise";
  target.module = module.get();
  target.factory = [module] {
    auto machine =
        std::make_unique<interp::Machine>(*module, interp::MachineOptions{});
    machine->start(module->find_function("main"));
    return machine;
  };
  target.detection_schedules = 3;
  return core::Pipeline(options).run(target);
}

TEST(NoiseTest, AdhocGroupsArePrunedAtAnnotation) {
  NoiseSpec spec;
  spec.tag = "tn";
  spec.adhoc_groups = 3;
  spec.adhoc_guarded = 4;
  const core::PipelineResult result = run_noise(spec);
  // Raw: each group reports its flag pair + guarded-cell pairs.
  EXPECT_GE(result.counts.raw_reports, 3u * 5u);
  // The §5.1 classifier finds exactly one sync per group...
  EXPECT_EQ(result.counts.adhoc_syncs, 3u);
  // ...and the annotated re-run prunes everything.
  EXPECT_EQ(result.counts.after_annotation, 0u);
}

TEST(NoiseTest, PublicationChainDiesAtTheRaceVerifier) {
  NoiseSpec spec;
  spec.tag = "tp";
  spec.publication_depth = 6;
  const core::PipelineResult result = run_noise(spec);
  // Raw: a slot pair and a gate pair per level.
  EXPECT_GE(result.counts.raw_reports, 10u);
  EXPECT_EQ(result.counts.adhoc_syncs, 0u);
  // Every report except the outermost gate is unreproducible.
  EXPECT_EQ(result.counts.remaining, 1u);
  EXPECT_EQ(result.counts.verifier_eliminated,
            result.counts.after_annotation - 1);
}

TEST(NoiseTest, CountersSurviveTheWholeFrontEnd) {
  NoiseSpec spec;
  spec.tag = "tc";
  spec.counters = 4;
  const core::PipelineResult result = run_noise(spec);
  // Two reports per counter (read-write and write-write), all genuine,
  // all reproducible.
  EXPECT_EQ(result.counts.raw_reports, 8u);
  EXPECT_EQ(result.counts.remaining, 8u);
  // But none of them reaches a vulnerable site.
  EXPECT_EQ(result.counts.vulnerability_reports, 0u);
}

TEST(NoiseTest, SafeSitesBecomeResidualReportsNotAttacks) {
  NoiseSpec spec;
  spec.tag = "ts";
  spec.safe_site_groups = 2;
  const core::PipelineResult result = run_noise(spec);
  EXPECT_GE(result.counts.remaining, 2u);
  // The bounded memcpy is statically reachable from the racy counter...
  EXPECT_GE(result.counts.vulnerability_reports, 2u);
  // ...but no attack is realizable (len is masked to < buffer size).
  EXPECT_EQ(result.confirmed_attacks(), 0u);
}

TEST(NoiseTest, MixedSpecStagesCompose) {
  NoiseSpec spec;
  spec.tag = "tm";
  spec.adhoc_groups = 2;
  spec.adhoc_guarded = 3;
  spec.publication_depth = 4;
  spec.counters = 2;
  const core::PipelineResult result = run_noise(spec);
  EXPECT_EQ(result.counts.adhoc_syncs, 2u);
  // Remaining = counters (4) + the one publication gate.
  EXPECT_EQ(result.counts.remaining, 5u);
}

TEST(NoiseTest, EmptySpecAddsNothing) {
  NoiseSpec spec;
  spec.tag = "te";
  auto module = noise_module(spec);
  // Only @main exists.
  EXPECT_EQ(module->functions().size(), 1u);
  const core::PipelineResult result = run_noise(spec);
  EXPECT_EQ(result.counts.raw_reports, 0u);
}

TEST(NoiseTest, NoiseSourceFilesAreMarked) {
  NoiseSpec spec;
  spec.tag = "tg";
  spec.counters = 1;
  auto module = noise_module(spec);
  for (const auto& f : module->functions()) {
    if (f->name() == "main") continue;
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (!instr->loc().valid()) continue;
        EXPECT_NE(instr->loc().file.find("noise"), std::string::npos)
            << instr->summary();
      }
    }
  }
}

}  // namespace
}  // namespace owl::workloads
