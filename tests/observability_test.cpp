// Observability layer tests (DESIGN.md §8): the span tracer, the metrics
// registry, and the run manifest.
//
//  - TraceCollectorTest: span recording, nesting containment on one
//    thread, per-thread attribution under a ThreadPool, Chrome trace JSON
//    shape, the disabled-collector fast path, and the --timings rows
//    (span_timings).
//  - MetricsRegistryTest: counter/histogram semantics, the deterministic
//    serialize() contract (sorted, advisory counters excluded), reset() as
//    a fresh registry, and kind-collision detection.
//  - RunManifestTest: manifest shape, determinism across identical runs
//    and across jobs values (the CI differential gate's claim), and the
//    owl_cli end-to-end path exercised via Pipeline::run_many.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/manifest.hpp"
#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace owl {
namespace {

// --------------------------------------------------------------------------
// TraceCollectorTest
// --------------------------------------------------------------------------

TEST(TraceCollectorTest, DisabledCollectorRecordsNothing) {
  support::TraceCollector collector;
  ASSERT_FALSE(collector.enabled());
  {
    support::TraceSpan span("stage", "target", collector);
  }
  EXPECT_EQ(collector.event_count(), 0u);
}

TEST(TraceCollectorTest, RecordsNameDetailAndDuration) {
  support::TraceCollector collector;
  collector.set_enabled(true);
  {
    support::TraceSpan span("detection", "toctou.mir", collector);
  }
  const std::vector<support::TraceEvent> events = collector.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "detection");
  EXPECT_EQ(events[0].detail, "toctou.mir");
  EXPECT_EQ(events[0].depth, 0u);
}

TEST(TraceCollectorTest, NestedSpansAreContainedInParent) {
  support::TraceCollector collector;
  collector.set_enabled(true);
  {
    support::TraceSpan outer("target", "t", collector);
    {
      support::TraceSpan inner("detection", "t", collector);
    }
  }
  std::vector<support::TraceEvent> events = collector.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // snapshot() sorts by (tid, start, depth): the outer span opened first.
  const support::TraceEvent& outer = events[0];
  const support::TraceEvent& inner = events[1];
  EXPECT_EQ(outer.name, "target");
  EXPECT_EQ(inner.name, "detection");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.tid, inner.tid);
  // Containment: the child opens no earlier and closes no later.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
}

TEST(TraceCollectorTest, AttributesSpansToWorkerThreads) {
  support::TraceCollector collector;
  collector.set_enabled(true);
  constexpr std::size_t kTasks = 8;
  support::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    support::TraceSpan span("task", std::to_string(i), collector);
  });
  const std::vector<support::TraceEvent> events = collector.snapshot();
  ASSERT_EQ(events.size(), kTasks);
  // Every task recorded exactly once, each on the tid of the thread that
  // ran it; the pool runs 4 threads (3 workers and the caller), so at most
  // 4 distinct tids appear.
  std::vector<std::string> details;
  std::vector<std::uint32_t> tids;
  for (const support::TraceEvent& e : events) {
    EXPECT_EQ(e.name, "task");
    details.push_back(e.detail);
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::sort(details.begin(), details.end());
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_NE(std::find(details.begin(), details.end(), std::to_string(i)),
              details.end());
  }
  EXPECT_LE(tids.size(), 4u);
  EXPECT_GE(tids.size(), 1u);
}

TEST(TraceCollectorTest, BuffersSurviveThreadExit) {
  support::TraceCollector collector;
  collector.set_enabled(true);
  std::thread worker([&] {
    support::TraceSpan span("ephemeral", "worker", collector);
  });
  worker.join();
  // The recording thread is gone; its buffer (and event) must not be.
  const std::vector<support::TraceEvent> events = collector.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "ephemeral");
}

TEST(TraceCollectorTest, ChromeTraceJsonShape) {
  support::TraceCollector collector;
  collector.set_enabled(true);
  {
    support::TraceSpan span("detection", "a \"quoted\" target", collector);
  }
  const std::string json = collector.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"detection\""), std::string::npos);
  // The detail must arrive JSON-escaped.
  EXPECT_NE(json.find("a \\\"quoted\\\" target"), std::string::npos);
  EXPECT_EQ(json.find("a \"quoted\" target"), std::string::npos);
}

TEST(TraceCollectorTest, ClearDropsEventsKeepsRecording) {
  support::TraceCollector collector;
  collector.set_enabled(true);
  {
    support::TraceSpan span("one", "x", collector);
  }
  collector.clear();
  EXPECT_EQ(collector.event_count(), 0u);
  {
    support::TraceSpan span("two", "y", collector);
  }
  const std::vector<support::TraceEvent> events = collector.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "two");
}

TEST(TraceCollectorTest, SpanTimingsFoldOneRowPerNameInFirstStartOrder) {
  // The --timings rows: per-name count, total and max, ordered by each
  // name's earliest start on any thread, not by snapshot()'s (tid, start).
  const auto event = [](const char* name, std::uint32_t tid,
                        std::uint64_t start_ns, double seconds) {
    support::TraceEvent e;
    e.name = name;
    e.tid = tid;
    e.start_ns = start_ns;
    e.duration_ns = static_cast<std::uint64_t>(seconds * 1e9);
    return e;
  };
  const std::vector<support::SpanTiming> rows = support::span_timings({
      event("target", 0, 10, 3.0),
      event("detection", 0, 20, 1.0),
      event("target", 1, 5, 1.0),
      event("detection", 1, 30, 2.0),
      event("annotation", 1, 40, 0.5),
  });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "target");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].total_seconds, 4.0);
  EXPECT_DOUBLE_EQ(rows[0].max_seconds, 3.0);
  EXPECT_EQ(rows[1].name, "detection");
  EXPECT_EQ(rows[1].count, 2u);
  EXPECT_DOUBLE_EQ(rows[1].total_seconds, 3.0);
  EXPECT_DOUBLE_EQ(rows[1].max_seconds, 2.0);
  EXPECT_EQ(rows[2].name, "annotation");
  EXPECT_EQ(rows[2].count, 1u);
  EXPECT_TRUE(support::span_timings({}).empty());
}

// --------------------------------------------------------------------------
// MetricsRegistryTest — on the global registry (the pipeline's sink), so
// every test starts from reset() to stay order-independent.
// --------------------------------------------------------------------------

class MetricsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { support::metrics().reset(); }
  void TearDown() override { support::metrics().reset(); }
};

TEST_F(MetricsRegistryTest, CounterAccumulates) {
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("a").inc();
  registry.counter("a").inc(4);
  EXPECT_EQ(registry.counter("a").value(), 5u);
}

TEST_F(MetricsRegistryTest, AccessorsReturnStableReferences) {
  support::MetricsRegistry& registry = support::metrics();
  support::Counter& c = registry.counter("stable");
  registry.counter("other").inc();
  EXPECT_EQ(&c, &registry.counter("stable"));
}

TEST_F(MetricsRegistryTest, KindCollisionThrows) {
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("name");
  EXPECT_THROW(registry.histogram("name"), std::logic_error);
}

TEST_F(MetricsRegistryTest, HistogramBucketsByBitWidth) {
  support::MetricsRegistry& registry = support::metrics();
  support::Histogram& h = registry.histogram("h");
  h.observe(0);  // bucket 0
  h.observe(1);  // bucket 1
  h.observe(2);  // bucket 2
  h.observe(3);  // bucket 2
  h.observe(7);  // bucket 3
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 13u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST_F(MetricsRegistryTest, SerializeIsSortedAndDeterministic) {
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("z.last").inc(2);
  registry.counter("a.first").inc();
  registry.histogram("m.middle").observe(3);
  const std::string first = registry.serialize();
  const std::string second = registry.serialize();
  EXPECT_EQ(first, second);
  EXPECT_LT(first.find("a.first"), first.find("m.middle"));
  EXPECT_LT(first.find("m.middle"), first.find("z.last"));
}

TEST_F(MetricsRegistryTest, SerializeExcludesAdvisoryCounters) {
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("behavioral").inc();
  const std::string before = registry.serialize();
  registry.advisory("jobs.dependent").inc(3);
  // An advisory count changed; the behavioral snapshot must not.
  EXPECT_EQ(registry.serialize(), before);
  EXPECT_EQ(registry.json().find("jobs.dependent"), std::string::npos);
  EXPECT_EQ(registry.advisory_json(), "{\"jobs.dependent\":3}");
}

// reset() is a fresh registry: names a previous run registered do not
// linger at zero in the next run's snapshot (a daemon's manifests would
// otherwise depend on the requests it served before), and a name may come
// back as another kind.
TEST_F(MetricsRegistryTest, ResetDropsRegistrations) {
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("dropped").inc(9);
  registry.advisory("dropped.advisory").inc();
  registry.reset();
  EXPECT_EQ(registry.serialize(), "");
  EXPECT_EQ(registry.json(), "{}");
  EXPECT_EQ(registry.advisory_json(), "{}");
  EXPECT_NO_THROW(registry.histogram("dropped").observe(1));
  EXPECT_EQ(registry.serialize(), "histogram dropped count=1 sum=1 b1:1\n");
}

TEST_F(MetricsRegistryTest, ConcurrentFlushesSumExactly) {
  support::MetricsRegistry& registry = support::metrics();
  constexpr std::size_t kTasks = 64;
  support::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t) {
    registry.counter("contended").inc(3);
  });
  EXPECT_EQ(registry.counter("contended").value(), 3u * kTasks);
}

// --------------------------------------------------------------------------
// RunManifestTest — end to end through Pipeline::run_many.
// --------------------------------------------------------------------------

std::shared_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::shared_ptr<ir::Module> m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

core::PipelineTarget target_for(const std::shared_ptr<ir::Module>& m,
                                std::uint64_t seed) {
  core::PipelineTarget t;
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

/// Renders the manifest for a fresh run of `jobs` workers over two racy
/// targets, resetting global state first so runs are comparable.
std::string manifest_for_run(unsigned jobs) {
  support::metrics().reset();
  auto m1 = parse_ok(steady_race("alpha"));
  auto m2 = parse_ok(steady_race("beta"));
  std::vector<core::PipelineTarget> targets{target_for(m1, 11),
                                            target_for(m2, 23)};
  core::PipelineOptions options;
  options.jobs = jobs;
  const std::vector<core::PipelineResult> results =
      core::Pipeline(options).run_many(targets);
  return core::render_manifest("test", options, targets, results);
}

/// The diffable manifest body: everything before the "environment" object
/// (the manifest renders it last, exactly so this split is a substring cut).
std::string diffable_body(const std::string& manifest) {
  const std::size_t cut = manifest.find("\"environment\"");
  EXPECT_NE(cut, std::string::npos);
  return manifest.substr(0, cut);
}

TEST(RunManifestTest, ShapeContainsSchemaTargetsAndMetrics) {
  const std::string manifest = manifest_for_run(1);
  EXPECT_NE(manifest.find("\"schema\":\"owl-manifest-v1\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"tool\":\"test\""), std::string::npos);
  EXPECT_NE(manifest.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(manifest.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(manifest.find("\"detector\":\"tsan\""), std::string::npos);
  EXPECT_NE(manifest.find("\"metrics\""), std::string::npos);
  EXPECT_NE(manifest.find("\"environment\""), std::string::npos);
  EXPECT_NE(manifest.find("\"raw_reports\""), std::string::npos);
}

TEST(RunManifestTest, IdenticalRunsProduceByteIdenticalBodies) {
  const std::string first = manifest_for_run(1);
  const std::string second = manifest_for_run(1);
  EXPECT_EQ(diffable_body(first), diffable_body(second));
}

TEST(RunManifestTest, BodyIsInvariantAcrossJobsValues) {
  const std::string sequential = manifest_for_run(1);
  const std::string parallel = manifest_for_run(4);
  EXPECT_EQ(diffable_body(sequential), diffable_body(parallel));
}

TEST(RunManifestTest, MetricSnapshotIsInvariantAcrossJobsValues) {
  (void)manifest_for_run(1);
  const std::string sequential = support::metrics().serialize();
  (void)manifest_for_run(4);
  const std::string parallel = support::metrics().serialize();
  EXPECT_EQ(sequential, parallel);
  // The pipeline actually flushed something: behavioral counters land in
  // the snapshot, substrate accounting in the advisory section.
  EXPECT_NE(sequential.find("pipeline.targets"), std::string::npos);
  EXPECT_NE(sequential.find("detector.reports_emitted"), std::string::npos);
  EXPECT_EQ(sequential.find("detector.accesses"), std::string::npos);
  EXPECT_NE(support::metrics().advisory_json().find("detector.accesses"),
            std::string::npos);
  support::metrics().reset();
}

// The options block echoes what a run was asked to do, so a sub-millisecond
// stage deadline must read back as itself, never as the unlimited "0".
TEST(RunManifestTest, OptionsRecordStageDeadlineExactly) {
  core::PipelineOptions options;
  const auto options_line = [&options] {
    const std::string manifest = core::render_manifest("test", options, {}, {});
    const std::size_t begin = manifest.find(" \"options\":");
    return manifest.substr(begin, manifest.find('\n', begin) - begin);
  };
  EXPECT_EQ(options_line(),
            " \"options\":{\"enable_adhoc_annotation\":\"true\","
            "\"enable_race_verifier\":\"true\","
            "\"enable_vuln_verifier\":\"true\","
            "\"race_verifier_attempts\":\"3\","
            "\"analyzer_mode\":\"directed\",\"retries\":\"2\","
            "\"stage_deadline_seconds\":\"0\","
            "\"fault_injection\":\"false\"},");
  options.stage_deadline = 0.0004;
  EXPECT_NE(options_line().find("\"stage_deadline_seconds\":\"4e-04\""),
            std::string::npos);
  options.stage_deadline = 1e-7;
  EXPECT_NE(options_line().find("\"stage_deadline_seconds\":\"1e-07\""),
            std::string::npos);
}

TEST(RunManifestTest, WriteManifestReportsIoFailure) {
  EXPECT_FALSE(core::write_manifest("/nonexistent-dir/m.json", "{}"));
}

}  // namespace
}  // namespace owl
