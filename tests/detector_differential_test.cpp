// Differential tests for the fast detection substrate (DESIGN.md §2.1):
// race::TsanDetector (paged shadow, dense clocks, lazy candidate capture)
// must emit field-identical reports to the test-only ReferenceDetector
// (the original hash-map substrate, tests/reference_detector.hpp).
//
// Both substrates co-observe: one machine run feeds BOTH detectors, so the
// event streams are literally identical and any divergence is the
// detector's. Two corpora:
//  - hand-written modules aimed at the substrate's corner cases (below);
//  - the pipeline's own detection schedules on every examples/ir module and
//    the nine paper workload models (PipelineSchedulesOnExamplesAndModels).
//    Every stage after detection is a function of the reports, so equal
//    reports there mean an equal pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/static_info.hpp"
#include "core/analyze.hpp"
#include "core/pipeline.hpp"
#include "interp/scheduler.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "race/tsan_detector.hpp"
#include "reference_detector.hpp"
#include "support/fault_injector.hpp"
#include "support/metrics.hpp"
#include "sync/annotator.hpp"
#include "workloads/registry.hpp"

namespace owl::race {
namespace {

std::shared_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::shared_ptr<ir::Module> m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

bool same_access(const AccessRecord& a, const AccessRecord& b) {
  return a.tid == b.tid && a.instr == b.instr && a.addr == b.addr &&
         a.value == b.value && a.is_write == b.is_write &&
         std::equal(a.stack.begin(), a.stack.end(), b.stack.begin(),
                    b.stack.end(),
                    [](const interp::StackEntry& x,
                       const interp::StackEntry& y) {
                      return x.function == y.function && x.instr == y.instr;
                    });
}

/// The first RaceReport field on which `a` and `b` differ ("" if none).
/// Every field is compared, including those to_string() omits (kind,
/// addresses, watched reads and every stack).
std::string first_difference(const RaceReport& a, const RaceReport& b) {
  if (a.kind != b.kind) return "kind";
  if (!same_access(a.first, b.first)) return "first";
  if (!same_access(a.second, b.second)) return "second";
  if (a.object_name != b.object_name) return "object_name";
  if (a.occurrences != b.occurrences) return "occurrences";
  if (a.supplemental_read.has_value() != b.supplemental_read.has_value() ||
      (a.supplemental_read.has_value() &&
       !same_access(*a.supplemental_read, *b.supplemental_read))) {
    return "supplemental_read";
  }
  if (!std::equal(a.watched_reads.begin(), a.watched_reads.end(),
                  b.watched_reads.begin(), b.watched_reads.end(),
                  same_access)) {
    return "watched_reads";
  }
  if (a.adhoc_sync != b.adhoc_sync) return "adhoc_sync";
  if (a.predicted != b.predicted) return "predicted";
  if (a.verified != b.verified) return "verified";
  if (a.security_hint != b.security_hint) return "security_hint";
  return "";
}

/// Fails (once, naming the first diverging report and field) unless the
/// two report lists are field-identical.
void expect_same_reports(const std::vector<RaceReport>& expected,
                         const std::vector<RaceReport>& actual,
                         const std::string& where) {
  ASSERT_EQ(expected.size(), actual.size()) << where << ": report count";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string field = first_difference(expected[i], actual[i]);
    if (field.empty()) continue;
    ir::NameTable names;
    ADD_FAILURE() << where << ": report " << i << " differs in " << field
                  << "\nexpected:\n" << expected[i].to_string(names)
                  << "actual:\n" << actual[i].to_string(names);
    return;
  }
}

/// Runs `machine` under `scheduler` with the reference and the product
/// substrate co-observing, and fails on any divergence in the reports, the
/// dynamic race count or the prescreen counters. Returns the product's
/// reports.
std::vector<RaceReport> co_observe(interp::Machine& machine,
                                   interp::Scheduler& scheduler,
                                   TsanDetector& product,
                                   ReferenceDetector& reference,
                                   const std::string& where) {
  machine.add_observer(&reference);
  machine.add_observer(&product);
  machine.run(scheduler);
  const TsanDetector::SubstrateCounters& want = reference.substrate_counters();
  const TsanDetector::SubstrateCounters& got = product.substrate_counters();
  EXPECT_EQ(want.accesses, got.accesses) << where;
  EXPECT_EQ(want.prescreen_pruned, got.prescreen_pruned) << where;
  EXPECT_EQ(want.prescreen_audit_violations, got.prescreen_audit_violations)
      << where;
  EXPECT_EQ(reference.dynamic_race_count(), product.dynamic_race_count())
      << where;
  std::vector<RaceReport> reports = product.take_reports();
  expect_same_reports(reference.take_reports(), reports, where);
  return reports;
}

void expect_identical(const ir::Module& m, std::uint64_t seeds,
                      const AnnotationSet* annotations = nullptr,
                      bool ski = false) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    interp::Machine machine(m, interp::MachineOptions{});
    machine.start(m.find_function("main"));
    interp::RandomScheduler scheduler(seed);
    TsanDetector product(annotations, ski);
    ReferenceDetector reference(annotations, ski);
    co_observe(machine, scheduler, product, reference,
               "seed " + std::to_string(seed));
  }
}

const char* kReadWriteRace = R"(module rw
global @x
global @y
func @writer() {
entry:
  store 1, @x
  store 2, @y
  ret
}
func @reader() {
entry:
  %v = load @x
  %w = load @x
  %u = load @y
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

TEST(DetectorDifferentialTest, ReadWriteRaces) {
  auto m = parse_ok(kReadWriteRace);
  expect_identical(*m, 8);
}

// Write-write races exercise the supplemental-read watch list: the first
// subsequent load must attach to the same report under both impls.
TEST(DetectorDifferentialTest, WriteWriteWithSupplementalRead) {
  auto m = parse_ok(R"(module ww
global @x
func @w1() {
entry:
  store 1, @x
  ret
}
func @w2() {
entry:
  store 2, @x
  %v = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @w1, 0
  %b = thread_create @w2, 0
  thread_join %a
  thread_join %b
  %r = load @x
  ret
}
)");
  expect_identical(*m, 8);
}

// Loops hammer one shadow slot with repeat reads and writes by the same
// thread while the other thread races.
TEST(DetectorDifferentialTest, LoopedAccessesHitFastPaths) {
  auto m = parse_ok(R"(module loop
global @ctr
func @worker() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  %v = load @ctr
  store %v, @ctr
  %n = add %i, 1
  %c = icmp slt %n, 50
  br %c, loop, out
out:
  ret
}
func @main() {
entry:
  %a = thread_create @worker, 0
  %b = thread_create @worker, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  expect_identical(*m, 8);
}

// Locks, atomics, and thread create/join edges: the dense clock tables and
// reserved sync maps must carry exactly the reference happens-before.
TEST(DetectorDifferentialTest, SynchronizationEdges) {
  auto m = parse_ok(R"(module sync
global @mu
global @x
global @flag
func @locked() {
entry:
  lock @mu
  %v = load @x
  store %v, @x
  unlock @mu
  ret
}
func @atomics() {
entry:
  %o = atomic_add @flag, 1
  %v = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @locked, 0
  %b = thread_create @locked, 0
  %c = thread_create @atomics, 0
  thread_join %a
  thread_join %b
  thread_join %c
  %r = load @x
  ret
}
)");
  expect_identical(*m, 8);
}

// Ad-hoc annotations flip accesses into release/acquire synchronization;
// the annotated branch of the hot path must behave identically.
TEST(DetectorDifferentialTest, AnnotatedAccesses) {
  auto m = parse_ok(R"(module adhoc
global @flag
global @data
func @producer() {
entry:
  store 41, @data
  store 1, @flag
  ret
}
func @consumer() {
entry:
  jmp spin
spin:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, spin, go
go:
  %v = load @data
  ret
}
func @main() {
entry:
  %a = thread_create @producer, 0
  %b = thread_create @consumer, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  // First pass unannotated: both impls should report the flag/data races.
  expect_identical(*m, 4);

  // Second pass with the flag pair annotated as release/acquire.
  const ir::Function* producer = m->find_function("producer");
  const ir::Function* consumer = m->find_function("consumer");
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(consumer, nullptr);
  const ir::Instruction* release = nullptr;
  const ir::Instruction* acquire = nullptr;
  for (const auto& block : producer->blocks()) {
    for (const auto& instr : block->instructions()) {
      if (instr->opcode() == ir::Opcode::kStore) release = instr.get();
    }
  }
  for (const auto& block : consumer->blocks()) {
    for (const auto& instr : block->instructions()) {
      if (instr->opcode() == ir::Opcode::kLoad &&
          block->label() == "spin") {
        acquire = instr.get();
      }
    }
  }
  ASSERT_NE(release, nullptr);
  ASSERT_NE(acquire, nullptr);
  AnnotationSet annotations;
  annotations.add_release_store(release);
  annotations.add_acquire_load(acquire);
  expect_identical(*m, 4, &annotations);
}

// SKI watch-list mode logs every read after a race until a write
// sanitizes the address — repeat reads must keep feeding the armed watch
// list.
TEST(DetectorDifferentialTest, SkiWatchListMode) {
  auto m = parse_ok(R"(module ski
global @x
func @w1() {
entry:
  store 1, @x
  %a = load @x
  %b = load @x
  ret
}
func @w2() {
entry:
  store 2, @x
  %c = load @x
  store 3, @x
  %d = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @w1, 0
  %b = thread_create @w2, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  expect_identical(*m, 8, nullptr, /*ski=*/true);

  // A read race arms the watch list; an atomic store then clears the read
  // set without sanitizing, so the next plain store by the same thread
  // finds its own write and no reads. That store must still sanitize the
  // address: the later read may not reach the first report.
  auto rewrite = parse_ok(R"(module ski_rewrite
global @x
func @writer() {
entry:
  store 1, @x
  ret
}
func @reader() {
entry:
  io_delay 4
  %a = load @x
  ret
}
func @owner() {
entry:
  io_delay 12
  %o = atomic_add @x, 1
  store 5, @x
  ret
}
func @late_reader() {
entry:
  io_delay 24
  %b = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @reader, 0
  %c = thread_create @owner, 0
  %d = thread_create @late_reader, 0
  thread_join %a
  thread_join %b
  thread_join %c
  thread_join %d
  ret
}
)");
  expect_identical(*rewrite, 8, nullptr, /*ski=*/true);
}

// Deep call chains: lazy capture rebuilds the as-of-access-time stacks
// from interned contexts; they must match the eagerly captured ones.
TEST(DetectorDifferentialTest, DeepCallStacks) {
  auto m = parse_ok(R"(module deep
global @x
func @leaf() {
entry:
  %v = load @x
  store %v, @x
  ret
}
func @mid() {
entry:
  call @leaf()
  call @leaf()
  ret
}
func @worker() {
entry:
  call @mid()
  ret
}
func @main() {
entry:
  %a = thread_create @worker, 0
  %b = thread_create @worker, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  expect_identical(*m, 8);
}

// ---------------------------------------------------------------------------
// The pipeline's own detection schedules, on the examples and the models.
// ---------------------------------------------------------------------------

/// What the co-observer sweep covered, so the test can insist it covered
/// every path it claims to.
struct Coverage {
  std::size_t reports = 0;
  std::size_t annotated_passes = 0;
  std::size_t ski_schedules = 0;
  std::size_t pruning_targets = 0;
};

/// One detection pass exactly as Pipeline::detect_once runs it — one
/// fresh machine per schedule, RandomScheduler(seed + i), or
/// PctScheduler(seed + i, 3, 20000) for SKI targets, the same fault
/// injector context — with both substrates on every machine. Returns the
/// product's merged reports.
std::vector<RaceReport> co_observe_pass(const core::PipelineTarget& target,
                                        const AnnotationSet* annotations,
                                        PrescreenView prescreen,
                                        support::FaultInjector* faults,
                                        const std::string& where,
                                        Coverage& coverage) {
  if (faults != nullptr) {
    faults->begin_stage(support::PipelineStage::kDetection);
  }
  const bool ski = target.detector == core::DetectorKind::kSki;
  std::vector<RaceReport> merged;
  for (unsigned i = 0; i < target.detection_schedules; ++i) {
    std::unique_ptr<interp::Machine> machine = target.factory();
    machine->set_fault_injector(faults);
    std::unique_ptr<interp::Scheduler> scheduler;
    std::unique_ptr<TsanDetector> product;
    if (ski) {
      scheduler = std::make_unique<interp::PctScheduler>(
          target.seed + i, /*depth=*/3, /*expected_steps=*/20000);
      product = std::make_unique<TsanDetector>(
          annotations, /*ski_watch_mode=*/true, prescreen);
      ++coverage.ski_schedules;
    } else {
      scheduler = std::make_unique<interp::RandomScheduler>(target.seed + i);
      product = std::make_unique<TsanDetector>(annotations, false, prescreen);
    }
    ReferenceDetector reference(annotations, ski, prescreen);
    std::vector<RaceReport> reports =
        co_observe(*machine, *scheduler, *product, reference,
                   where + " schedule " + std::to_string(i));
    coverage.reports += reports.size();
    merge_reports(merged, std::move(reports));
  }
  return merged;
}

/// Co-observes the raw and the annotated pass of `target` in every
/// prescreen mode its module allows. `pipeline`, when given, is a real run
/// of the same target with the same fault plan (verifiers off): in
/// prescreen off mode its raw and after-annotation stages must equal the
/// sweep's, which pins the sweep to the pipeline's schedules.
void co_observe_target(const core::PipelineTarget& target,
                       const core::PipelineResult* pipeline,
                       const support::FaultPlan* fault, Coverage& coverage) {
  const analysis::ModuleStatic module_static(*target.module);
  const bool pruning = module_static.prescreen.pruning_enabled();
  if (pruning) ++coverage.pruning_targets;
  for (const PrescreenMode mode :
       {PrescreenMode::kOff, PrescreenMode::kOn, PrescreenMode::kAudit}) {
    if (mode != PrescreenMode::kOff && !pruning) break;
    PrescreenView prescreen;
    if (mode != PrescreenMode::kOff) {
      prescreen = {mode, &module_static.prescreen.no_race()};
    }
    std::optional<support::FaultInjector> faults;
    if (fault != nullptr) {
      faults.emplace().add_plan(*fault);
      faults->begin_target(target.name);
    }
    support::FaultInjector* injector = faults ? &*faults : nullptr;
    const std::string where = target.name + " prescreen " +
                              std::string(support::audit_mode_name(mode));

    std::vector<RaceReport> reduced = co_observe_pass(
        target, nullptr, prescreen, injector, where + " raw", coverage);
    if (pipeline != nullptr && mode == PrescreenMode::kOff) {
      expect_same_reports(pipeline->store.stage(core::Stage::kRawDetection),
                          reduced, where + " raw vs Pipeline::run");
    }
    const sync::AnnotationOutcome outcome =
        sync::annotate_adhoc_syncs(*target.module, reduced);
    if (!outcome.annotations.empty()) {
      reduced = co_observe_pass(target, &outcome.annotations, prescreen,
                                injector, where + " annotated", coverage);
      ++coverage.annotated_passes;
    }
    if (pipeline != nullptr && mode == PrescreenMode::kOff) {
      expect_same_reports(pipeline->store.stage(core::Stage::kAfterAnnotation),
                          reduced, where + " annotated vs Pipeline::run");
    }
  }
}

/// owl_cli's target for one example file with default flags (seed 1, 4
/// schedules, no inputs, 400000 steps), and the pipeline's own run of it
/// through core::analyze with the verifiers off.
void co_observe_example(const std::filesystem::path& path,
                        const support::FaultPlan* fault, Coverage& coverage) {
  core::AnalysisRequest request;
  request.race_verifier = false;
  request.vuln_verifier = false;
  std::optional<support::FaultInjector> faults;
  if (fault != nullptr) faults.emplace().add_plan(*fault);
  const core::AnalysisOutcome outcome = core::analyze(
      {{path.string(), std::nullopt}}, request, faults ? &*faults : nullptr);
  ASSERT_TRUE(outcome.ran_pipeline) << path << ": " << outcome.error;
  const std::shared_ptr<ir::Module> module = outcome.modules.front();

  core::PipelineTarget target;
  target.name = path.filename().string();
  target.module = module.get();
  target.factory = [module, max_steps = request.max_steps] {
    interp::MachineOptions options;
    options.max_steps = max_steps;
    auto machine = std::make_unique<interp::Machine>(*module, options);
    machine->start(module->find_function("main"));
    return machine;
  };
  target.detection_schedules = request.schedules;
  target.seed = request.seed;
  co_observe_target(target, &outcome.results.front(), fault, coverage);
}

TEST(DetectorDifferentialTest, PipelineSchedulesOnExamplesAndModels) {
  Coverage coverage;
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(OWL_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".mir") examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  ASSERT_GE(examples.size(), 16u);
  for (const auto& path : examples) {
    co_observe_example(path, nullptr, coverage);
  }

  // The models at noise scales 1 and 2. The Pipeline::run cross-check runs
  // at scale 1 only: at scale 2 the same schedule logic meets bigger
  // modules, and the check would triple the test's time (memcached's
  // vulnerability analysis of every unverified report).
  for (const int scale : {1, 2}) {
    for (const workloads::Workload& w :
         workloads::make_all({static_cast<double>(scale)})) {
      core::PipelineTarget target = w.target(/*seed=*/1);
      target.name += " scale " + std::to_string(scale);
      std::optional<core::PipelineResult> pipeline;
      if (scale == 1) {
        core::PipelineOptions options = w.pipeline_options();
        options.enable_race_verifier = false;
        options.enable_vuln_verifier = false;
        pipeline = core::Pipeline(options).run(target);
      }
      co_observe_target(target, pipeline ? &*pipeline : nullptr, nullptr,
                        coverage);
    }
  }

  // A truncated event stream (owl_cli --inject-fault detect:truncate:2):
  // the machine drops the same events for both substrates.
  support::FaultPlan truncate;
  ASSERT_TRUE(support::parse_fault_plan("detect:truncate:2", truncate));
  for (const auto& path : examples) {
    co_observe_example(path, &truncate, coverage);
  }
  support::metrics().reset();

  EXPECT_GT(coverage.reports, 0u);
  EXPECT_GT(coverage.annotated_passes, 0u);
  EXPECT_GT(coverage.ski_schedules, 0u);
  EXPECT_GT(coverage.pruning_targets, 0u);
}

// Regression for the merge_reports index cleanup (flat hash + stable
// sort): merged output must stay in key order with summed occurrences,
// earliest supplemental read, and concatenated watched reads.
TEST(MergeReportsOrderTest, OrderAndAggregationUnchanged) {
  auto m = parse_ok(kReadWriteRace);
  // Harvest real reports (real instruction ids) across several seeds.
  std::vector<std::vector<RaceReport>> batches;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    interp::MachineOptions options;
    interp::Machine machine(*m, options);
    TsanDetector detector(nullptr, /*ski_watch_mode=*/true);
    machine.add_observer(&detector);
    machine.start(m->find_function("main"));
    interp::RandomScheduler sched(seed);
    machine.run(sched);
    batches.push_back(detector.take_reports());
  }

  std::vector<RaceReport> merged;
  std::uint64_t total_occurrences = 0;
  std::size_t total_watched = 0;
  for (const auto& batch : batches) {
    for (const RaceReport& r : batch) {
      total_occurrences += r.occurrences;
      total_watched += r.watched_reads.size();
    }
    std::vector<RaceReport> copy = batch;
    merge_reports(merged, std::move(copy));
  }

  // Key order, unique keys.
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].key(), merged[i].key());
  }
  // Occurrences summed, watched reads concatenated — nothing lost.
  std::uint64_t merged_occurrences = 0;
  std::size_t merged_watched = 0;
  for (const RaceReport& r : merged) {
    merged_occurrences += r.occurrences;
    merged_watched += r.watched_reads.size();
  }
  EXPECT_EQ(merged_occurrences, total_occurrences);
  EXPECT_EQ(merged_watched, total_watched);
  // Earliest supplemental read wins: merging a batch with a different
  // supplemental read into an existing report must not replace it.
  for (const RaceReport& r : merged) {
    if (!r.supplemental_read.has_value()) continue;
    // Find the first batch that contributed this key with a supplemental.
    for (const auto& batch : batches) {
      bool found = false;
      for (const RaceReport& b : batch) {
        if (b.key() == r.key() && b.supplemental_read.has_value()) {
          EXPECT_EQ(b.supplemental_read->instr, r.supplemental_read->instr);
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
}

}  // namespace
}  // namespace owl::race
