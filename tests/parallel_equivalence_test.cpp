// Sequential-equivalence differential tests for the parallel pipeline
// executor: `jobs=N` must be a pure wall-clock knob. Every test runs the
// same multi-target workload sequentially (jobs=1) and in parallel
// (jobs=4) and demands byte-identical canonical serializations —
// core::serialize_result covers counts, failure records, every stage's
// reports, exploit hints, and attacks — plus equal Table-2/3 counters.
// One target always carries an injected fault so the equivalence claim
// includes the resilience layer (budgets, retries, FailureRecords,
// per-target FaultInjector forks).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace owl::core {
namespace {

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

/// A race whose racing moment needs the §5.2 livelock release: the racy
/// store sits inside the critical section the reader must enter first.
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

/// A TOCTOU-style target exercising the back half of the pipeline: the
/// racy flag guards a file-operation site, so vulnerability analysis emits
/// an exploit hint and the dynamic verifier drives an attack.
std::string toctou_race(const char* name) {
  return std::string("module ") + name + R"(
global @perm [1] = 1
func @serve() {
entry:
  %p = load @perm                 !serve.c:31
  %ok = icmp ne %p, 0             !serve.c:31
  br %ok, do_serve, deny          !serve.c:32
do_serve:
  io_delay 12                     !serve.c:35
  %fd = file_open 7               !serve.c:36
  file_write %fd, @perm, 1        !serve.c:37
  ret
deny:
  ret
}
func @revoke() {
entry:
  io_delay 6                      !admin.c:90
  store 0, @perm                  !admin.c:91
  ret
}
func @main() {
entry:
  %a = thread_create @serve, 0
  %b = thread_create @revoke, 0
  thread_join %a
  thread_join %b
  ret
}
)";
}

struct Workload {
  std::vector<std::shared_ptr<ir::Module>> modules;
  std::vector<PipelineTarget> targets;
};

/// Six heterogeneous targets covering every pipeline stage; `faulted`
/// (target name "F") is hit by the injected detection exception below.
Workload make_workload() {
  Workload w;
  w.modules = {parse_ok(steady_race("A")),       parse_ok(lock_livelock_race("B")),
               parse_ok(toctou_race("C")),       parse_ok(steady_race("D")),
               parse_ok(lock_livelock_race("E")), parse_ok(steady_race("F"))};
  std::uint64_t seed = 11;
  for (const auto& module : w.modules) {
    w.targets.push_back(target_for(module, seed));
    seed += 11;
  }
  return w;
}

/// The one injected fault the tentpole's differential gate requires: F's
/// first detection attempt throws, costing a retry (count=1) — the
/// resilience path must behave identically under every jobs value.
void add_fault(FaultInjector& injector) {
  FaultPlan plan{FaultKind::kStageException, PipelineStage::kDetection, "F"};
  plan.count = 1;
  injector.add_plan(plan);
}

std::vector<PipelineResult> run_with_jobs(const Workload& w, unsigned jobs) {
  FaultInjector injector(0x0417);
  add_fault(injector);
  PipelineOptions options;
  options.jobs = jobs;
  options.fault_injector = &injector;
  std::vector<PipelineResult> results = Pipeline(options).run_many(w.targets);
  // The fork-and-absorb bookkeeping must also be jobs-invariant.
  EXPECT_EQ(injector.fired_total(), 1u) << "jobs=" << jobs;
  return results;
}

void expect_equivalent(const std::vector<PipelineResult>& sequential,
                       const std::vector<PipelineResult>& parallel,
                       unsigned jobs) {
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const PipelineResult& s = sequential[i];
    const PipelineResult& p = parallel[i];
    // Byte-identical canonical form — the strongest claim first, so a
    // mismatch prints the exact divergence.
    EXPECT_EQ(serialize_result(s), serialize_result(p))
        << "target " << s.target_name << " diverged at jobs=" << jobs;
    // Table-2 counters (reports per stage) and Table-3 counters
    // (exploits/attacks) spelled out for readable failures.
    EXPECT_EQ(s.counts.raw_reports, p.counts.raw_reports);
    EXPECT_EQ(s.counts.adhoc_syncs, p.counts.adhoc_syncs);
    EXPECT_EQ(s.counts.after_annotation, p.counts.after_annotation);
    EXPECT_EQ(s.counts.verifier_eliminated, p.counts.verifier_eliminated);
    EXPECT_EQ(s.counts.remaining, p.counts.remaining);
    EXPECT_EQ(s.counts.vulnerability_reports, p.counts.vulnerability_reports);
    EXPECT_EQ(s.counts.retries_used, p.counts.retries_used);
    EXPECT_EQ(s.counts.failures.size(), p.counts.failures.size());
    EXPECT_EQ(s.exploits.size(), p.exploits.size());
    EXPECT_EQ(s.attacks.size(), p.attacks.size());
    EXPECT_EQ(s.confirmed_attacks(), p.confirmed_attacks());
  }
}

TEST(ParallelEquivalenceTest, JobsFourMatchesSequentialByteForByte) {
  const Workload w = make_workload();
  const std::vector<PipelineResult> sequential = run_with_jobs(w, 1);

  // The workload is non-trivial end to end: races detected, one target
  // retried through the injected fault, exploits and attacks produced.
  ASSERT_EQ(sequential.size(), 6u);
  std::size_t raw_total = 0, exploit_total = 0, attack_total = 0;
  for (const PipelineResult& result : sequential) {
    raw_total += result.counts.raw_reports;
    exploit_total += result.exploits.size();
    attack_total += result.attacks.size();
  }
  EXPECT_GE(raw_total, 5u);
  EXPECT_GE(exploit_total, 1u);
  EXPECT_GE(attack_total, 1u);
  EXPECT_GE(sequential[5].counts.retries_used, 1u)
      << "the injected fault on F must cost a retry";

  const std::vector<PipelineResult> parallel = run_with_jobs(w, 4);
  expect_equivalent(sequential, parallel, 4);
}

TEST(ParallelEquivalenceTest, EveryJobsValueIsEquivalent) {
  // jobs is a pure wall-clock knob for ANY value, including pools larger
  // than the target count and hardware_concurrency (jobs=0).
  const Workload w = make_workload();
  const std::vector<PipelineResult> sequential = run_with_jobs(w, 1);
  for (const unsigned jobs : {2u, 3u, 8u, 0u}) {
    expect_equivalent(sequential, run_with_jobs(w, jobs), jobs);
  }
}

TEST(ParallelEquivalenceTest, ParallelRunIsInternallyDeterministic) {
  // Two jobs=4 runs of the same workload agree with each other — the
  // equivalence is not a lucky schedule.
  const Workload w = make_workload();
  expect_equivalent(run_with_jobs(w, 4), run_with_jobs(w, 4), 4);
}

TEST(ParallelEquivalenceTest, VerifierShardingMatchesSequentialAttempts) {
  // Pipeline::run with a verifier pool shards the race verifier's
  // schedule-exploration attempts; the fold must reproduce the
  // sequential attempt accounting exactly.
  auto module = parse_ok(lock_livelock_race("shard"));
  const PipelineTarget target = target_for(module, 99);

  PipelineOptions sequential_options;
  sequential_options.race_verifier_attempts = 6;
  const PipelineResult sequential =
      Pipeline(sequential_options).run(target);

  support::ThreadPool pool(4);
  PipelineOptions sharded_options = sequential_options;
  sharded_options.verifier_pool = &pool;
  const PipelineResult sharded = Pipeline(sharded_options).run(target);

  EXPECT_EQ(serialize_result(sequential), serialize_result(sharded));
}

TEST(ParallelEquivalenceTest, SpanTimingsAggregateAcrossWorkers) {
  // --timings is a view of the trace: every worker's spans land in the one
  // collector, so each of the 6 targets contributes exactly one `target`
  // and one `detection` span to the rows, whatever the jobs value.
  const Workload w = make_workload();
  support::TraceCollector& trace = support::TraceCollector::instance();
  trace.clear();
  trace.set_enabled(true);
  PipelineOptions options;
  options.jobs = 4;
  Pipeline(options).run_many(w.targets);
  trace.set_enabled(false);
  const std::vector<support::SpanTiming> rows =
      support::span_timings(trace.snapshot());
  trace.clear();
  const auto count_of = [&rows](std::string_view name) {
    const auto row = std::find_if(
        rows.begin(), rows.end(),
        [name](const support::SpanTiming& r) { return r.name == name; });
    return row == rows.end() ? 0 : row->count;
  };
  EXPECT_EQ(count_of("target"), w.targets.size());
  EXPECT_EQ(count_of("detection"), w.targets.size());
  // Rows follow each name's first start, and every span opens inside its
  // target's span.
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().name, "target");
}

TEST(ParallelEquivalenceTest, SerializationExcludesWallClock) {
  // Guard the canonical form itself: mutating the timing fields must not
  // change the serialization (otherwise the differential gates would flake
  // on scheduling noise instead of catching real divergence).
  auto module = parse_ok(steady_race("clock"));
  PipelineResult result = Pipeline().run(target_for(module, 5));
  const std::string before = serialize_result(result);
  result.total_seconds += 123.0;
  result.counts.avg_analysis_seconds += 9.0;
  EXPECT_EQ(before, serialize_result(result));
}

}  // namespace
}  // namespace owl::core
