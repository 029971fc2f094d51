// Tests for the concurrency checker suite (DESIGN.md §11): per-checker
// positive/negative pairs on hand-built modules, planted-bug ground truth
// on the shipped examples, SARIF rendering and determinism, byte-identity
// of the pipeline output when the suite is off, and fault-injection
// degradation of the checker stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static_info.hpp"
#include "checkers/checker.hpp"
#include "checkers/sarif.hpp"
#include "core/pipeline.hpp"
#include "core/render.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "serve/json.hpp"
#include "support/fault_injector.hpp"
#include "support/metrics.hpp"

namespace owl::checkers {
namespace {

std::shared_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::shared_ptr<ir::Module> m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

std::filesystem::path examples_dir() { return OWL_EXAMPLES_DIR; }

std::shared_ptr<ir::Module> load_example(const std::string& name) {
  std::ifstream in(examples_dir() / name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_ok(text.str());
}

/// Module + static analysis + checker context, lifetimes bundled.
struct Analyzed {
  std::shared_ptr<ir::Module> module;
  std::unique_ptr<analysis::ModuleStatic> statics;
  std::unique_ptr<AnalysisContext> ctx;
};

Analyzed analyze(std::shared_ptr<ir::Module> m, bool with_factory = true) {
  Analyzed out;
  out.module = std::move(m);
  out.statics = std::make_unique<analysis::ModuleStatic>(*out.module);
  interp::MachineFactory factory;
  const ir::Function* entry = out.module->find_function("main");
  if (with_factory && entry != nullptr && entry->has_body()) {
    factory = [module = out.module, entry] {
      auto machine =
          std::make_unique<interp::Machine>(*module, interp::MachineOptions{});
      machine->start(entry);
      return machine;
    };
  }
  out.ctx =
      std::make_unique<AnalysisContext>(*out.module, *out.statics, factory);
  return out;
}

CheckerOptions all_checkers() {
  CheckerOptions options;
  std::string error;
  EXPECT_TRUE(CheckerOptions::parse("all", options, error)) << error;
  return options;
}

std::vector<BugReport> run_all(const Analyzed& analyzed) {
  return run_checkers(all_checkers(), *analyzed.ctx);
}

std::vector<std::string> rule_ids(const std::vector<BugReport>& reports) {
  std::vector<std::string> ids;
  for (const BugReport& report : reports) ids.push_back(report.rule_id);
  return ids;
}

// --- options & report plumbing -------------------------------------------

TEST(CheckerOptionsTest, ParsesSelections) {
  CheckerOptions options;
  std::string error;
  EXPECT_TRUE(CheckerOptions::parse("off", options, error));
  EXPECT_FALSE(options.any());
  EXPECT_EQ(options.canonical(), "off");

  EXPECT_TRUE(CheckerOptions::parse("all", options, error));
  EXPECT_TRUE(options.deadlock && options.atomicity && options.lock_mismatch &&
              options.condvar);
  EXPECT_EQ(options.canonical(), "deadlock,atomicity,lock-mismatch,condvar");

  EXPECT_TRUE(CheckerOptions::parse("condvar,deadlock", options, error));
  EXPECT_TRUE(options.deadlock && options.condvar);
  EXPECT_FALSE(options.atomicity || options.lock_mismatch);

  EXPECT_FALSE(CheckerOptions::parse("deadlock,bogus", options, error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(CheckerOptionsTest, CanonicalFormIsOrderInsensitive) {
  CheckerOptions a;
  CheckerOptions b;
  std::string error;
  ASSERT_TRUE(CheckerOptions::parse("condvar,deadlock", a, error));
  ASSERT_TRUE(CheckerOptions::parse("deadlock,condvar", b, error));
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.canonical(), "deadlock,condvar");
}

TEST(RuleRegistryTest, IdsAreStableAndIndexed) {
  const auto& rules = rule_registry();
  ASSERT_EQ(rules.size(), 7u);
  const std::vector<std::string> expected = {
      "OWL-DL-001", "OWL-AV-001", "OWL-LM-001", "OWL-LM-002",
      "OWL-LM-003", "OWL-CV-001", "OWL-CV-002"};
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].id, expected[i]);
    EXPECT_EQ(rule_index(rules[i].id), static_cast<int>(i));
  }
  EXPECT_EQ(rule_index("OWL-XX-999"), -1);
}

TEST(BugReportMgrTest, FinalizeSortsAndDeduplicates) {
  const auto make = [](const char* rule, const char* file, unsigned line) {
    BugReport report;
    report.rule_id = rule;
    report.level = Severity::kWarning;
    report.message = "m";
    BugLocation location;
    location.loc.file = file;
    location.loc.line = line;
    location.function = "f";
    report.locations.push_back(location);
    return report;
  };
  BugReportMgr mgr;
  mgr.add(make("OWL-LM-001", "b.c", 2));
  mgr.add(make("OWL-AV-001", "a.c", 9));
  mgr.add(make("OWL-LM-001", "b.c", 2));  // exact duplicate
  mgr.add(make("OWL-LM-001", "a.c", 1));
  mgr.finalize();
  const std::vector<BugReport>& reports = mgr.reports();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].rule_id, "OWL-AV-001");
  EXPECT_EQ(reports[1].locations[0].loc.file, "a.c");
  EXPECT_EQ(reports[2].locations[0].loc.file, "b.c");
}

// --- deadlock checker ----------------------------------------------------

TEST(DeadlockCheckerTest, FindsAbbaCycleWithoutReplayFactory) {
  const Analyzed analyzed = analyze(parse_ok(R"(module abba
global @a
global @b
func @t1() {
entry:
  lock @a
  lock @b
  unlock @b
  unlock @a
  ret
}
func @t2() {
entry:
  lock @b
  lock @a
  unlock @a
  unlock @b
  ret
}
func @main() {
entry:
  %h1 = thread_create @t1, 0
  %h2 = thread_create @t2, 0
  thread_join %h1
  thread_join %h2
  ret
}
)"),
                                   /*with_factory=*/false);
  const std::vector<BugReport> reports = run_all(analyzed);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule_id, "OWL-DL-001");
  EXPECT_NE(reports[0].message.find("replay unavailable"), std::string::npos);
  ASSERT_EQ(reports[0].locations.size(), 2u);
}

TEST(DeadlockCheckerTest, ConfirmsPlantedCycleByReplay) {
  const Analyzed analyzed = analyze(load_example("lock_cycle.mir"));
  const std::vector<BugReport> reports = run_all(analyzed);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule_id, "OWL-DL-001");
  EXPECT_EQ(reports[0].level, Severity::kError);
  EXPECT_NE(reports[0].message.find("confirmed by replay"),
            std::string::npos);
}

TEST(DeadlockCheckerTest, SilentOnConsistentLockOrder) {
  const Analyzed analyzed = analyze(parse_ok(R"(module ordered
global @a
global @b
global @g
func @t1() {
entry:
  lock @a
  lock @b
  store 1, @g
  unlock @b
  unlock @a
  ret
}
func @t2() {
entry:
  lock @a
  lock @b
  store 2, @g
  unlock @b
  unlock @a
  ret
}
func @main() {
entry:
  %h1 = thread_create @t1, 0
  %h2 = thread_create @t2, 0
  thread_join %h1
  thread_join %h2
  ret
}
)"));
  EXPECT_TRUE(run_all(analyzed).empty());
}

TEST(DeadlockCheckerTest, SilentWhenThreadsNeverOverlap) {
  // Same ABBA shape, but the two functions are called sequentially from
  // main — no MHP pair, so the cycle cannot manifest.
  const Analyzed analyzed = analyze(parse_ok(R"(module seq
global @a
global @b
func @t1() {
entry:
  lock @a
  lock @b
  unlock @b
  unlock @a
  ret
}
func @t2() {
entry:
  lock @b
  lock @a
  unlock @a
  unlock @b
  ret
}
func @main() {
entry:
  call @t1()
  call @t2()
  ret
}
)"),
                                   /*with_factory=*/false);
  EXPECT_TRUE(run_all(analyzed).empty());
}

// --- atomicity checker ---------------------------------------------------

TEST(AtomicityCheckerTest, FindsPlantedSplitCriticalSection) {
  const Analyzed analyzed = analyze(load_example("atomicity_split.mir"));
  const std::vector<BugReport> reports = run_all(analyzed);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule_id, "OWL-AV-001");
  ASSERT_EQ(reports[0].locations.size(), 3u);
}

TEST(AtomicityCheckerTest, SilentWithoutInterveningRelease) {
  // Same read-modify-write, but inside one critical section.
  const Analyzed analyzed = analyze(parse_ok(R"(module whole
global @m
global @bal = 100
func @withdraw() {
entry:
  lock @m
  %b = load @bal
  %n = sub %b, 50
  store %n, @bal
  unlock @m
  ret
}
func @deposit() {
entry:
  lock @m
  %b = load @bal
  %n = add %b, 10
  store %n, @bal
  unlock @m
  ret
}
func @main() {
entry:
  %h1 = thread_create @withdraw, 0
  %h2 = thread_create @deposit, 0
  thread_join %h1
  thread_join %h2
  ret
}
)"),
                                   /*with_factory=*/false);
  EXPECT_TRUE(run_all(analyzed).empty());
}

TEST(AtomicityCheckerTest, SilentWithoutDependentWrite) {
  // The second critical section re-reads under the lock instead of using
  // the stale value — the classic correct fix for the split pattern.
  const Analyzed analyzed = analyze(parse_ok(R"(module refetch
global @m
global @bal = 100
func @withdraw() {
entry:
  lock @m
  %b = load @bal
  unlock @m
  lock @m
  %fresh = load @bal
  %n = sub %fresh, 50
  store %n, @bal
  unlock @m
  ret
}
func @deposit() {
entry:
  lock @m
  %b = load @bal
  %n = add %b, 10
  store %n, @bal
  unlock @m
  ret
}
func @main() {
entry:
  %h1 = thread_create @withdraw, 0
  %h2 = thread_create @deposit, 0
  thread_join %h1
  thread_join %h2
  ret
}
)"),
                                   /*with_factory=*/false);
  EXPECT_TRUE(run_all(analyzed).empty());
}

TEST(AtomicityCheckerTest, SilentWithoutConcurrentWriter) {
  // Split critical section, but no other thread ever writes the object —
  // the interleaving the rule describes cannot happen.
  const Analyzed analyzed = analyze(parse_ok(R"(module lone
global @m
global @bal = 100
func @withdraw() {
entry:
  lock @m
  %b = load @bal
  unlock @m
  %n = sub %b, 50
  lock @m
  store %n, @bal
  unlock @m
  ret
}
func @main() {
entry:
  %h1 = thread_create @withdraw, 0
  thread_join %h1
  ret
}
)"),
                                   /*with_factory=*/false);
  EXPECT_TRUE(run_all(analyzed).empty());
}

// --- lock-mismatch checker -----------------------------------------------

TEST(LockMismatchCheckerTest, FindsPlantedDoubleUnlock) {
  const Analyzed analyzed = analyze(load_example("double_unlock.mir"));
  const std::vector<BugReport> reports = run_all(analyzed);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule_id, "OWL-LM-001");
  EXPECT_EQ(reports[0].level, Severity::kError);
  ASSERT_EQ(reports[0].locations.size(), 1u);
  EXPECT_EQ(reports[0].locations[0].loc.file, "pool.c");
  EXPECT_EQ(reports[0].locations[0].loc.line, 24u);
}

TEST(LockMismatchCheckerTest, FindsDoubleAcquire) {
  const Analyzed analyzed = analyze(parse_ok(R"(module dbl
global @m
func @main() {
entry:
  lock @m
  lock @m
  unlock @m
  ret
}
)"),
                                   /*with_factory=*/false);
  const std::vector<BugReport> reports = run_all(analyzed);
  ASSERT_EQ(rule_ids(reports),
            (std::vector<std::string>{"OWL-LM-002"}));
}

TEST(LockMismatchCheckerTest, FindsInconsistentGuards) {
  const Analyzed analyzed = analyze(parse_ok(R"(module incons
global @m
global @g
func @guarded() {
entry:
  lock @m
  store 1, @g
  unlock @m
  ret
}
func @bare() {
entry:
  store 2, @g
  ret
}
func @main() {
entry:
  %h1 = thread_create @guarded, 0
  %h2 = thread_create @bare, 0
  thread_join %h1
  thread_join %h2
  ret
}
)"),
                                   /*with_factory=*/false);
  const std::vector<BugReport> reports = run_all(analyzed);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule_id, "OWL-LM-003");
}

TEST(LockMismatchCheckerTest, SilentOnDisciplinedGuards) {
  const Analyzed analyzed = analyze(parse_ok(R"(module disciplined
global @m
global @g
func @w1() {
entry:
  lock @m
  store 1, @g
  unlock @m
  ret
}
func @w2() {
entry:
  lock @m
  store 2, @g
  unlock @m
  ret
}
func @main() {
entry:
  %h1 = thread_create @w1, 0
  %h2 = thread_create @w2, 0
  thread_join %h1
  thread_join %h2
  ret
}
)"),
                                   /*with_factory=*/false);
  EXPECT_TRUE(run_all(analyzed).empty());
}

// --- condition-variable checker ------------------------------------------

TEST(CondVarCheckerTest, FindsPlantedWaitWithoutLoop) {
  const Analyzed analyzed = analyze(load_example("cv_missed_wakeup.mir"));
  const std::vector<BugReport> reports = run_all(analyzed);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule_id, "OWL-CV-001");
  ASSERT_EQ(reports[0].locations.size(), 2u);
  EXPECT_EQ(reports[0].locations[0].loc.file, "worker.c");
}

TEST(CondVarCheckerTest, SilentWhenWaitIsInsideRecheckLoop) {
  const Analyzed analyzed = analyze(parse_ok(R"(module looped
global @cv
global @ready
global @out
func @waiter() {
entry:
  jmp check
check:
  %r = load @ready
  %set = icmp ne %r, 0
  br %set, go, dowait
dowait:
  hb_acquire @cv
  jmp check
go:
  %v = load @ready
  store %v, @out
  ret
}
func @notifier() {
entry:
  store 1, @ready
  hb_release @cv
  ret
}
func @main() {
entry:
  %h1 = thread_create @waiter, 0
  %h2 = thread_create @notifier, 0
  thread_join %h1
  thread_join %h2
  ret
}
)"),
                                   /*with_factory=*/false);
  EXPECT_TRUE(run_all(analyzed).empty());
}

TEST(CondVarCheckerTest, FindsSignalWithoutWaiter) {
  const Analyzed analyzed = analyze(parse_ok(R"(module lostsig
global @cv
global @done
func @worker() {
entry:
  store 1, @done
  hb_release @cv
  ret
}
func @main() {
entry:
  %h = thread_create @worker, 0
  thread_join %h
  ret
}
)"),
                                   /*with_factory=*/false);
  const std::vector<BugReport> reports = run_all(analyzed);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule_id, "OWL-CV-002");
}

TEST(CondVarCheckerTest, SilentWhenSignalHasWaiter) {
  // The planted example's signal is paired with a (buggy) waiter, so only
  // CV-001 fires there — verified in FindsPlantedWaitWithoutLoop. Here the
  // loop-correct variant is fully silent including CV-002.
  const Analyzed analyzed = analyze(parse_ok(R"(module paired
global @cv
global @ready
func @waiter() {
entry:
  jmp check
check:
  %r = load @ready
  %set = icmp ne %r, 0
  br %set, go, dowait
dowait:
  hb_acquire @cv
  jmp check
go:
  ret
}
func @notifier() {
entry:
  store 1, @ready
  hb_release @cv
  ret
}
func @main() {
entry:
  %h1 = thread_create @waiter, 0
  %h2 = thread_create @notifier, 0
  thread_join %h1
  thread_join %h2
  ret
}
)"),
                                   /*with_factory=*/false);
  EXPECT_TRUE(run_all(analyzed).empty());
}

// --- ground truth, selection, determinism --------------------------------

TEST(CheckerSuiteTest, ExampleGroundTruth) {
  // Every planted example yields exactly its one bug; every other shipped
  // example is clean under the full suite.
  const std::map<std::string, std::string> planted = {
      {"lock_cycle.mir", "OWL-DL-001"},
      {"nested_lock_cycle.mir", "OWL-DL-001"},
      {"atomicity_split.mir", "OWL-AV-001"},
      {"double_unlock.mir", "OWL-LM-001"},
      {"cv_missed_wakeup.mir", "OWL-CV-001"},
  };
  std::size_t swept = 0;
  for (const auto& entry : std::filesystem::directory_iterator(examples_dir())) {
    if (entry.path().extension() != ".mir") continue;
    const std::string name = entry.path().filename().string();
    const Analyzed analyzed = analyze(load_example(name));
    const std::vector<BugReport> reports = run_all(analyzed);
    const auto it = planted.find(name);
    if (it != planted.end()) {
      ASSERT_EQ(reports.size(), 1u) << name;
      EXPECT_EQ(reports[0].rule_id, it->second) << name;
    } else {
      EXPECT_TRUE(reports.empty())
          << name << " unexpectedly yields " << reports.size()
          << " finding(s)";
    }
    ++swept;
  }
  EXPECT_GE(swept, 10u);
}

TEST(CheckerSuiteTest, SelectionGatesEachChecker) {
  const Analyzed analyzed = analyze(load_example("double_unlock.mir"));
  std::string error;

  CheckerOptions only_deadlock;
  ASSERT_TRUE(CheckerOptions::parse("deadlock", only_deadlock, error));
  EXPECT_TRUE(run_checkers(only_deadlock, *analyzed.ctx).empty());

  CheckerOptions only_mismatch;
  ASSERT_TRUE(CheckerOptions::parse("lock-mismatch", only_mismatch, error));
  EXPECT_EQ(run_checkers(only_mismatch, *analyzed.ctx).size(), 1u);

  CheckerOptions off;
  ASSERT_TRUE(CheckerOptions::parse("off", off, error));
  EXPECT_TRUE(run_checkers(off, *analyzed.ctx).empty());
}

TEST(CheckerSuiteTest, FindingsAreRebuildDeterministic) {
  const auto render = [](const std::vector<BugReport>& reports) {
    std::string out;
    for (const BugReport& report : reports) out += report.to_string();
    return out;
  };
  for (const char* name :
       {"lock_cycle.mir", "atomicity_split.mir", "cv_missed_wakeup.mir"}) {
    const std::string first = render(run_all(analyze(load_example(name))));
    const std::string second = render(run_all(analyze(load_example(name))));
    EXPECT_FALSE(first.empty()) << name;
    EXPECT_EQ(first, second) << name;
  }
}

// --- SARIF ----------------------------------------------------------------

TEST(SarifTest, LogHasSarif210ShapeAndFullRuleTable) {
  const Analyzed analyzed = analyze(load_example("lock_cycle.mir"));
  const std::vector<BugReport> reports = run_all(analyzed);
  const std::string log = render_sarif(
      {SarifTarget{"lock_cycle.mir", &reports}});

  serve::JsonValue root;
  std::string error;
  ASSERT_TRUE(serve::JsonValue::parse(log, root, error)) << error;
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.find("$schema"), nullptr);
  EXPECT_NE(root.find("$schema")->as_string().find("sarif-2.1.0"),
            std::string::npos);
  EXPECT_EQ(root.find("version")->as_string(), "2.1.0");

  const serve::JsonValue* runs = root.find("runs");
  ASSERT_TRUE(runs != nullptr && runs->is_array());
  ASSERT_EQ(runs->as_array().size(), 1u);
  const serve::JsonValue& run = runs->as_array()[0];
  const serve::JsonValue* driver = run.find("tool")->find("driver");
  EXPECT_EQ(driver->find("name")->as_string(), "owl");
  EXPECT_EQ(driver->find("rules")->as_array().size(), 7u);

  const serve::JsonValue* results = run.find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  ASSERT_EQ(results->as_array().size(), 1u);
  const serve::JsonValue& result = results->as_array()[0];
  EXPECT_EQ(result.find("ruleId")->as_string(), "OWL-DL-001");
  EXPECT_EQ(result.find("ruleIndex")->as_int(), 0);
  EXPECT_EQ(result.find("level")->as_string(), "error");
  const serve::JsonValue* location =
      result.find("locations")->as_array()[0].find("physicalLocation");
  EXPECT_EQ(location->find("artifactLocation")->find("uri")->as_string(),
            "teller.c");
  EXPECT_EQ(location->find("region")->find("startLine")->as_int(), 14);
  EXPECT_EQ(result.find("properties")->find("target")->as_string(),
            "lock_cycle.mir");
}

TEST(SarifTest, EmptyFindingsStillRenderAValidLog) {
  const std::vector<BugReport> none;
  const std::string log = render_sarif({SarifTarget{"clean.mir", &none}});
  serve::JsonValue root;
  std::string error;
  ASSERT_TRUE(serve::JsonValue::parse(log, root, error)) << error;
  EXPECT_TRUE(
      root.find("runs")->as_array()[0].find("results")->as_array().empty());
}

// --- pipeline integration --------------------------------------------------

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
  return t;
}

const std::vector<std::string>& planted_examples() {
  static const std::vector<std::string> kNames = {
      "lock_cycle.mir", "atomicity_split.mir", "double_unlock.mir",
      "cv_missed_wakeup.mir"};
  return kNames;
}

TEST(CheckerPipelineTest, OutputIsByteIdenticalAcrossJobs) {
  std::vector<std::shared_ptr<ir::Module>> modules;
  for (const std::string& name : planted_examples()) {
    modules.push_back(load_example(name));
  }
  std::string baseline_serialized;
  std::string baseline_sarif;
  for (const unsigned jobs : {1u, 4u}) {
    support::metrics().reset();
    core::PipelineOptions options;
    options.jobs = jobs;
    options.checkers = all_checkers();
    std::vector<core::PipelineTarget> targets;
    for (std::size_t i = 0; i < modules.size(); ++i) {
      targets.push_back(target_for(modules[i], planted_examples()[i]));
    }
    const std::vector<core::PipelineResult> results =
        core::Pipeline(options).run_many(targets);

    std::string serialized;
    std::vector<SarifTarget> sarif_targets;
    for (const core::PipelineResult& result : results) {
      EXPECT_TRUE(result.counts.checkers_ran);
      EXPECT_EQ(result.checker_findings.size(), 1u) << result.target_name;
      serialized += core::serialize_result(result);
      sarif_targets.push_back(
          SarifTarget{result.target_name, &result.checker_findings});
    }
    const std::string sarif = render_sarif(sarif_targets);
    if (jobs == 1) {
      baseline_serialized = serialized;
      baseline_sarif = sarif;
    } else {
      EXPECT_EQ(serialized, baseline_serialized);
      EXPECT_EQ(sarif, baseline_sarif);
    }
  }
  support::metrics().reset();
}

TEST(CheckerPipelineTest, OffModeLeavesOutputWithoutCheckerSections) {
  // With the suite off (the default), nothing checker-shaped may appear in
  // any rendered form — the byte-identity-to-seed guarantee the CI gate
  // enforces end to end.
  support::metrics().reset();
  auto m = load_example("lock_cycle.mir");
  core::PipelineOptions options;
  options.jobs = 1;
  const std::vector<core::PipelineResult> results =
      core::Pipeline(options).run_many({target_for(m, "lock_cycle.mir")});
  ASSERT_EQ(results.size(), 1u);
  const core::PipelineResult& result = results[0];
  EXPECT_FALSE(result.counts.checkers_ran);
  EXPECT_TRUE(result.checker_findings.empty());
  for (const std::string& rendered :
       {core::serialize_result(result), core::render_cli_summary(result),
        core::render_cli_details(result, true)}) {
    EXPECT_EQ(rendered.find("checker"), std::string::npos);
  }
  EXPECT_EQ(support::metrics().serialize().find("checker"),
            std::string::npos);
  support::metrics().reset();
}

TEST(CheckerPipelineTest, InjectedCheckerFaultDegradesNotDies) {
  support::metrics().reset();
  auto m = load_example("lock_cycle.mir");
  support::FaultInjector injector;
  support::FaultPlan plan;
  ASSERT_TRUE(support::parse_fault_plan("check:throw", plan));
  injector.add_plan(plan);

  core::PipelineOptions options;
  options.jobs = 1;
  options.checkers = all_checkers();
  options.fault_injector = &injector;
  const std::vector<core::PipelineResult> results =
      core::Pipeline(options).run_many({target_for(m, "lock_cycle.mir")});
  ASSERT_EQ(results.size(), 1u);
  const core::PipelineResult& result = results[0];

  // The stage ran, absorbed the fault, reported no findings — and the rest
  // of the pipeline still executed (the store has all three stages).
  EXPECT_TRUE(result.counts.checkers_ran);
  EXPECT_TRUE(result.checker_findings.empty());
  ASSERT_TRUE(result.degraded());
  EXPECT_EQ(result.counts.failures.size(), 1u);
  EXPECT_EQ(result.counts.failures[0].stage,
            support::PipelineStage::kCheckers);
  EXPECT_TRUE(result.store.has_stage(core::Stage::kRawDetection));
  EXPECT_TRUE(result.store.has_stage(core::Stage::kAfterRaceVerifier));
  support::metrics().reset();
}

}  // namespace
}  // namespace owl::checkers
