// Tests for the static may-race pre-screen: escape and lockset
// classification on hand-built modules, and the soundness contract on the
// shipped examples — identical pipeline behavior across --prescreen modes,
// with audit mode observing zero pruned-but-raced accesses.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static_info.hpp"
#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "support/metrics.hpp"

namespace owl::analysis {
namespace {

std::shared_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::shared_ptr<ir::Module> m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

const ir::Instruction* find_instr(const ir::Function* f, ir::Opcode op,
                                  std::size_t n = 0) {
  for (const auto& bb : f->blocks()) {
    for (const auto& instr : bb->instructions()) {
      if (instr->opcode() == op) {
        if (n == 0) return instr.get();
        --n;
      }
    }
  }
  return nullptr;
}

PointsTo::ObjectId id_of(const PointsTo& pt, const ir::Value* site) {
  PointsTo::ObjectId id = 0;
  EXPECT_TRUE(pt.id_of_site(site, id));
  return id;
}

TEST(PrescreenTest, EscapeClassification) {
  auto m = parse_ok(R"(module m
global @g
func @child(ptr %p) {
entry:
  store 2, %p
  ret
}
func @main() {
entry:
  %l = alloca 1
  store 1, %l
  %e = alloca 1
  store %e, @g
  %t = alloca 1
  %h = thread_create @child, %t
  thread_join %h
  ret
}
)");
  const ModuleStatic ms(*m);
  const PointsTo& pt = ms.points_to;
  const Prescreen& ps = ms.prescreen;
  ASSERT_TRUE(ps.pruning_enabled()) << ps.disable_reason();

  const ir::Function* main_fn = m->find_function("main");
  const PointsTo::ObjectId local =
      id_of(pt, find_instr(main_fn, ir::Opcode::kAlloca, 0));
  const PointsTo::ObjectId via_global =
      id_of(pt, find_instr(main_fn, ir::Opcode::kAlloca, 1));
  const PointsTo::ObjectId via_thread =
      id_of(pt, find_instr(main_fn, ir::Opcode::kAlloca, 2));

  EXPECT_FALSE(ps.object_escapes(local));
  EXPECT_TRUE(ps.object_escapes(via_global));
  EXPECT_TRUE(ps.object_escapes(via_thread));
  EXPECT_TRUE(ps.object_escapes(id_of(pt, m->find_global("g"))));

  // Only the never-escaping store is prunable.
  EXPECT_TRUE(ps.no_race().count(find_instr(main_fn, ir::Opcode::kStore, 0)));
  const ir::Function* child = m->find_function("child");
  EXPECT_FALSE(ps.no_race().count(find_instr(child, ir::Opcode::kStore)));
}

TEST(PrescreenTest, ConsistentlyLockedGlobalIsPrunable) {
  auto m = parse_ok(R"(module m
global @mu
global @data
func @a() {
entry:
  lock @mu
  %v = load @data
  store 1, @data
  unlock @mu
  ret
}
func @b() {
entry:
  lock @mu
  store 2, @data
  unlock @mu
  ret
}
func @main() {
entry:
  %x = thread_create @a, 0
  %y = thread_create @b, 0
  thread_join %x
  thread_join %y
  ret
}
)");
  const ModuleStatic ms(*m);
  const Prescreen& ps = ms.prescreen;
  ASSERT_TRUE(ps.pruning_enabled()) << ps.disable_reason();
  EXPECT_TRUE(ps.object_consistently_locked(
      id_of(ms.points_to, m->find_global("data"))));
  EXPECT_TRUE(
      ps.no_race().count(find_instr(m->find_function("a"), ir::Opcode::kLoad)));
  EXPECT_TRUE(ps.no_race().count(
      find_instr(m->find_function("b"), ir::Opcode::kStore)));
}

TEST(PrescreenTest, UnlockedAccessBreaksLockConsistency) {
  auto m = parse_ok(R"(module m
global @mu
global @data
func @a() {
entry:
  lock @mu
  store 1, @data
  unlock @mu
  ret
}
func @b() {
entry:
  store 2, @data
  ret
}
func @main() {
entry:
  %x = thread_create @a, 0
  %y = thread_create @b, 0
  thread_join %x
  thread_join %y
  ret
}
)");
  const ModuleStatic ms(*m);
  const Prescreen& ps = ms.prescreen;
  ASSERT_TRUE(ps.pruning_enabled()) << ps.disable_reason();
  EXPECT_FALSE(ps.object_consistently_locked(
      id_of(ms.points_to, m->find_global("data"))));
  EXPECT_FALSE(
      ps.no_race().count(find_instr(m->find_function("a"), ir::Opcode::kStore)));
  EXPECT_FALSE(
      ps.no_race().count(find_instr(m->find_function("b"), ir::Opcode::kStore)));
}

TEST(PrescreenTest, ForeignUnlockBreaksLockDiscipline) {
  auto m = parse_ok(R"(module m
global @mu
global @data
func @a() {
entry:
  lock @mu
  store 1, @data
  unlock @mu
  ret
}
func @evil() {
entry:
  unlock @mu
  ret
}
func @main() {
entry:
  %x = thread_create @a, 0
  %y = thread_create @evil, 0
  thread_join %x
  thread_join %y
  ret
}
)");
  const ModuleStatic ms(*m);
  const Prescreen& ps = ms.prescreen;
  ASSERT_TRUE(ps.pruning_enabled()) << ps.disable_reason();
  // The unlock in @evil cannot be proven to hold @mu, so @mu is no longer a
  // well-formed token and @data loses its consistently-locked status.
  EXPECT_FALSE(ps.object_consistently_locked(
      id_of(ms.points_to, m->find_global("data"))));
  EXPECT_FALSE(
      ps.no_race().count(find_instr(m->find_function("a"), ir::Opcode::kStore)));
}

TEST(PrescreenTest, WildStoreDisablesPruningModuleWide) {
  auto m = parse_ok(R"(module m
func @main() {
entry:
  %x = input 0
  store 1, %x
  %l = alloca 1
  store 2, %l
  ret
}
)");
  const ModuleStatic ms(*m);
  const Prescreen& ps = ms.prescreen;
  // A store through an input-derived pointer may clobber any object, so
  // even the provably-local alloca access must stay un-pruned.
  EXPECT_FALSE(ps.pruning_enabled());
  EXPECT_FALSE(ps.disable_reason().empty());
  EXPECT_TRUE(ps.no_race().empty());
}

// --------------------------------------------------------------------------
// Shipped-example contract
// --------------------------------------------------------------------------

std::filesystem::path examples_dir() { return OWL_EXAMPLES_DIR; }

std::shared_ptr<ir::Module> load_example(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_ok(text.str());
}

std::vector<std::filesystem::path> example_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(examples_dir())) {
    if (entry.path().extension() == ".mir") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 6u);
  return files;
}

TEST(PrescreenTest, ThreadlocalNoiseExampleIsMostlyPrunable) {
  auto m = load_example(examples_dir() / "threadlocal_noise.mir");
  const ModuleStatic ms(*m);
  ASSERT_TRUE(ms.prescreen.pruning_enabled())
      << ms.prescreen.disable_reason();
  EXPECT_EQ(ms.prescreen.wild_accesses(), 0u);
  // All twelve private-buffer accesses (8 in worker_a, 4 in worker_b) are
  // provably thread-local; the @flag handoff pair must stay hot.
  EXPECT_EQ(ms.prescreen.no_race().size(), 12u);
}

/// Public-API fact dump: pruning verdict, access counters, per-object
/// escape/lock classification, and the no_race set in module order. The
/// committed goldens under tests/golden/prescreen_facts/ were generated
/// from the pre-LockFacts-refactor build with exactly this format — the
/// diff proves the refactor moved the lockset machinery without changing
/// one fact.
std::string dump_facts(const ir::Module& module, const PointsTo& pt,
                       const Prescreen& pre) {
  std::string out;
  if (pre.pruning_enabled()) {
    out += "pruning=enabled\n";
  } else {
    out += "pruning=disabled reason=" + pre.disable_reason() + "\n";
  }
  out += "considered=" + std::to_string(pre.considered_accesses()) +
         " wild=" + std::to_string(pre.wild_accesses()) + "\n";
  const auto& objects = pt.objects();
  for (PointsTo::ObjectId id = 0; id < objects.size(); ++id) {
    const auto& obj = objects[id];
    const char* kind = "?";
    switch (obj.kind) {
      case ObjectKind::kGlobal: kind = "global"; break;
      case ObjectKind::kStack: kind = "stack"; break;
      case ObjectKind::kHeap: kind = "heap"; break;
      case ObjectKind::kFunction: kind = "function"; break;
    }
    out += "obj " + std::to_string(id) + " kind=" + kind +
           " site=" + obj.site->name() +
           " escapes=" + (pre.object_escapes(id) ? "1" : "0") +
           " locked=" + (pre.object_consistently_locked(id) ? "1" : "0") +
           "\n";
  }
  for (const auto& fn : module.functions()) {
    for (const auto& bb : fn->blocks()) {
      const auto& instrs = bb->instructions();
      for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (pre.no_race().count(instrs[i].get()) == 0) continue;
        out += "no_race " + fn->name() + " " + bb->label() + "#" +
               std::to_string(i) + " " +
               std::string(ir::opcode_name(instrs[i]->opcode())) + " " +
               instrs[i]->loc().to_string() + "\n";
      }
    }
  }
  return out;
}

TEST(PrescreenTest, GoldenFactsMatchCommittedSnapshot) {
  const std::filesystem::path golden_dir =
      std::filesystem::path(OWL_GOLDEN_DIR) / "prescreen_facts";
  std::size_t compared = 0;
  for (const auto& path : example_files()) {
    const std::filesystem::path golden =
        golden_dir / (path.stem().string() + ".txt");
    if (!std::filesystem::exists(golden)) continue;  // example added later
    std::ifstream in(golden);
    ASSERT_TRUE(in.good()) << "cannot open " << golden;
    std::ostringstream expected;
    expected << in.rdbuf();

    auto m = load_example(path);
    const ModuleStatic ms(*m);
    EXPECT_EQ(dump_facts(*m, ms.points_to, ms.prescreen), expected.str())
        << "static facts drifted for " << path.filename();
    ++compared;
  }
  EXPECT_GE(compared, 10u) << "golden sweep lost its example coverage";
}

TEST(PrescreenTest, FactsIdenticalAcrossConstructionPaths) {
  // The prescreen can build its own LockFacts (3-arg ctor) or borrow a
  // caller-owned instance (4-arg ctor, what ModuleStatic does so the
  // checker suite shares the facts). Both paths must produce identical
  // verdicts, and the facts serialization must be rebuild-deterministic.
  for (const auto& path : example_files()) {
    auto m = load_example(path);
    const ModuleStatic ms(*m);
    const Prescreen standalone(*m, ms.points_to, ms.resolved_calls);
    const LockFacts facts(*m, ms.points_to, ms.resolved_calls);
    const Prescreen borrowed(*m, ms.points_to, ms.resolved_calls, facts);

    const std::string via_static = dump_facts(*m, ms.points_to, ms.prescreen);
    EXPECT_EQ(dump_facts(*m, ms.points_to, standalone), via_static)
        << path.filename();
    EXPECT_EQ(dump_facts(*m, ms.points_to, borrowed), via_static)
        << path.filename();

    const LockFacts rebuilt(*m, ms.points_to, ms.resolved_calls);
    EXPECT_EQ(facts.serialize(), rebuilt.serialize()) << path.filename();
    EXPECT_EQ(facts.serialize(), ms.lock_facts.serialize())
        << path.filename();
  }
}

core::PipelineTarget target_for(const std::shared_ptr<ir::Module>& m) {
  core::PipelineTarget t;
  t.name = m->name();
  t.module = m.get();
  t.factory = [m] {
    auto machine =
        std::make_unique<interp::Machine>(*m, interp::MachineOptions{});
    machine->start(m->find_function("main"));
    return machine;
  };
  return t;
}

/// Everything behavioral about a pipeline sweep: per-target stage counts,
/// canonical report dumps, exploit/attack tallies, and the behavioral
/// metrics snapshot (advisory counters excluded by design).
std::string behavior_fingerprint(const std::vector<core::PipelineResult>& rs) {
  std::ostringstream out;
  ir::NameTable names;
  for (const core::PipelineResult& r : rs) {
    out << r.target_name << '\n'
        << r.counts.serialize() << '\n'
        << r.store.canonical_dump(names) << "exploits=" << r.exploits.size()
        << " attacks=" << r.attacks.size()
        << " confirmed=" << r.confirmed_attacks() << '\n';
  }
  out << support::metrics().serialize();
  return out.str();
}

TEST(PrescreenTest, PipelineBehaviorIsIdenticalAcrossModesAndJobs) {
  const std::vector<std::filesystem::path> files = example_files();
  std::vector<std::shared_ptr<ir::Module>> modules;
  for (const auto& path : files) modules.push_back(load_example(path));

  for (const unsigned jobs : {1u, 4u}) {
    std::string baseline;
    for (const race::PrescreenMode mode :
         {race::PrescreenMode::kOff, race::PrescreenMode::kOn,
          race::PrescreenMode::kAudit}) {
      support::metrics().reset();
      core::PipelineOptions options;
      options.jobs = jobs;
      options.prescreen = mode;
      const core::Pipeline pipeline(options);
      std::vector<core::PipelineTarget> targets;
      for (const auto& m : modules) targets.push_back(target_for(m));
      const std::vector<core::PipelineResult> results =
          pipeline.run_many(targets);

      const std::string fingerprint = behavior_fingerprint(results);
      if (mode == race::PrescreenMode::kOff) {
        baseline = fingerprint;
      } else {
        EXPECT_EQ(fingerprint, baseline)
            << "prescreen mode " << support::audit_mode_name(mode)
            << " changed behavior at jobs=" << jobs;
      }
      if (mode == race::PrescreenMode::kOn) {
        EXPECT_GT(
            support::metrics().advisory("prescreen.pruned_accesses").value(),
            0u)
            << "expected threadlocal_noise to produce pruned accesses";
      }
      if (mode == race::PrescreenMode::kAudit) {
        EXPECT_EQ(
            support::metrics().advisory("prescreen.audit_violations").value(),
            0u)
            << "audit observed a pruned-but-raced access at jobs=" << jobs;
      }
    }
  }
  support::metrics().reset();
}

}  // namespace
}  // namespace owl::analysis
