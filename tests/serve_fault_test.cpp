// Integration tests for the serve layer's robustness claims: every
// service-phase fault (admit, enqueue, cache-read, cache-write, respond)
// fails exactly one request cleanly while the daemon keeps serving; the
// executor isolates requests from each other (byte-identical reruns); and
// a withheld response is owed — and paid — by journal replay on restart.
//
// These drive ServiceCore directly (no sockets): the transport is covered
// end-to-end by scripts/serve_check.py; what needs gtest precision is the
// request lifecycle itself.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/executor.hpp"
#include "serve/json.hpp"
#include "serve/service_core.hpp"
#include "support/fault_injector.hpp"
#include "support/strings.hpp"

namespace owl::serve {
namespace {

/// A tiny racy module (lost update): fast to analyze, nonempty findings.
constexpr const char* kModule = R"(module lost_update
global @balance [1] = 100

func @deposit_a() {
entry:
  %b = load @balance
  io_delay 5
  %n = add %b, 10
  store %n, @balance
  ret
}

func @deposit_b() {
entry:
  %b = load @balance
  io_delay 3
  %n = add %b, 25
  store %n, @balance
  ret
}

func @main() {
entry:
  %a = thread_create @deposit_a, 0
  %b = thread_create @deposit_b, 0
  thread_join %a
  thread_join %b
  ret
}
)";

class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/owl_serve_fault_XXXXXX";
    path_ = mkdtemp(pattern);
  }
  ~TempDir() {
    if (!path_.empty()) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string analyze_line(const std::string& id) {
  return R"({"id":")" + id + R"(","module_text":)" +
         json_quote(kModule) + R"(,"name":"lost_update"})";
}

std::string_view strip_newline(const std::string& text) {
  std::string_view view = text;
  while (!view.empty() && (view.back() == '\n' || view.back() == '\r')) {
    view.remove_suffix(1);
  }
  return view;
}

/// Runs one line through the core and returns the parsed response (waits
/// for the executor thread via a latch in the respond callback).
JsonValue roundtrip(ServiceCore& core, const std::string& line,
                    bool* responded = nullptr, unsigned timeout_s = 60) {
  std::mutex mutex;
  std::condition_variable done;
  std::string response;
  bool have_response = false;
  core.handle_line(line, "test-client", [&](const std::string& text) {
    std::lock_guard<std::mutex> lock(mutex);
    response = text;
    have_response = true;
    done.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  const bool ok = done.wait_for(lock, std::chrono::seconds(timeout_s),
                                [&] { return have_response; });
  if (responded != nullptr) *responded = ok;
  JsonValue value;
  std::string error;
  if (ok) JsonValue::parse(strip_newline(response), value, error);
  return value;
}

/// Parses "stage:kind[:after]" and caps the plan at `count` firings (the
/// CLI spec has no count field; tests want "fail exactly one request").
support::FaultPlan plan_for(const char* spec, std::uint64_t count = 0) {
  support::FaultPlan plan;
  EXPECT_TRUE(support::parse_fault_plan(spec, plan)) << spec;
  plan.count = count;
  return plan;
}

// ---- executor isolation ----

TEST(ServeExecutorTest, RerunsAreByteIdentical) {
  Executor executor;
  AnalysisOptions options;
  const ExecResult first = executor.run(kModule, "lost_update", options);
  ASSERT_EQ(first.exit_code, 0);
  ASSERT_TRUE(first.ran_pipeline);
  ASSERT_FALSE(first.output.empty());
  ASSERT_FALSE(first.manifest.empty());

  // An interleaved different request must not leak into the rerun.
  AnalysisOptions other = options;
  other.seed = 99;
  other.detector = core::DetectorKind::kSki;
  executor.run(kModule, "lost_update", other);

  const ExecResult again = executor.run(kModule, "lost_update", options);
  EXPECT_EQ(again.output, first.output);
  EXPECT_EQ(again.manifest, first.manifest);
  EXPECT_EQ(again.exit_code, first.exit_code);
}

// A degraded request registers pipeline.failures.<stage> counters. The
// next request's manifest must not carry them at zero: a fresh process
// never prints those keys, so the daemon's manifest_sha would depend on the
// requests it served before.
TEST(ServeExecutorTest, DegradedRequestLeavesNoStaleManifestKeys) {
  Executor executor;
  AnalysisOptions options;
  const ExecResult first = executor.run(kModule, "lost_update", options);
  ASSERT_TRUE(first.ran_pipeline);
  EXPECT_EQ(first.manifest.find("pipeline.failures."), std::string::npos);

  AnalysisOptions deadline = options;
  deadline.stage_deadline = 1e-7;
  const ExecResult degraded = executor.run(kModule, "lost_update", deadline);
  ASSERT_TRUE(degraded.degraded);
  EXPECT_NE(degraded.manifest.find("\"pipeline.failures.detection\":1"),
            std::string::npos);

  const ExecResult again = executor.run(kModule, "lost_update", options);
  EXPECT_EQ(again.manifest, first.manifest);
  EXPECT_EQ(again.output, first.output);
}

TEST(ServeExecutorTest, JobsDoNotChangeBytes) {
  Executor executor;
  AnalysisOptions options;
  const ExecResult serial = executor.run(kModule, "lost_update", options);
  AnalysisOptions parallel_options = options;
  parallel_options.jobs = 4;
  const ExecResult parallel =
      executor.run(kModule, "lost_update", parallel_options);
  EXPECT_EQ(parallel.output, serial.output);
  EXPECT_EQ(parallel.manifest, serial.manifest);
}

TEST(ServeExecutorTest, LoadErrorsMatchOwlCliContract) {
  Executor executor;
  AnalysisOptions options;
  const ExecResult parse_fail = executor.run("not minir\n", "bad", options);
  EXPECT_EQ(parse_fail.exit_code, 1);
  EXPECT_FALSE(parse_fail.ran_pipeline);
  EXPECT_NE(parse_fail.error.find("owl_cli: bad: "), std::string::npos);

  AnalysisOptions wrong_entry = options;
  wrong_entry.entry = "nope";
  const ExecResult no_entry = executor.run(kModule, "m", wrong_entry);
  EXPECT_EQ(no_entry.exit_code, 1);
  EXPECT_EQ(no_entry.error, "owl_cli: m: no entry function @nope\n");

  // Parses, but fails ir::verify_module: exit 2, as owl_cli does.
  const ExecResult verify_fail = executor.run(
      "module bad\nfunc @main() {\nentry:\n  io_delay 1\n}\n", "bad.mir",
      options);
  EXPECT_EQ(verify_fail.exit_code, 2);
  EXPECT_FALSE(verify_fail.ran_pipeline);
  EXPECT_TRUE(verify_fail.output.empty());
  EXPECT_EQ(verify_fail.error,
            "owl_cli: bad.mir: verify-error: in @main at 'io_delay 1': block "
            "'entry' does not end in a terminator\n");
}

// ---- service-phase fault injection ----

class ServeFaultTest : public ::testing::Test {
 protected:
  /// Builds a core with `specs` installed as service-phase plans and the
  /// cache/journal rooted in a scratch dir.
  void build(const std::vector<support::FaultPlan>& plans,
             bool with_journal = false) {
    faults_ = std::make_unique<support::FaultInjector>();
    for (const support::FaultPlan& plan : plans) faults_->add_plan(plan);
    ServiceCore::Config config;
    config.cache_dir = dir_.path() + "/cache";
    if (with_journal) config.journal_path = dir_.path() + "/journal.log";
    config.queue_depth = 8;
    config.max_inflight_per_client = 8;
    if (!faults_->empty()) config.service_faults = faults_.get();
    core_ = std::make_unique<ServiceCore>(config);
    core_->start();
  }

  TempDir dir_;
  std::unique_ptr<support::FaultInjector> faults_;
  std::unique_ptr<ServiceCore> core_;
};

TEST_F(ServeFaultTest, AdmitThrowFailsOneRequestCleanly) {
  build({plan_for("admit:throw", /*count=*/1)});
  const JsonValue failed = roundtrip(*core_, analyze_line("r1"));
  EXPECT_EQ(failed.find("status")->as_string(), "error");
  EXPECT_NE(failed.find("reason")->as_string().find("serve-admit"),
            std::string::npos);
  // The daemon keeps serving.
  const JsonValue ok = roundtrip(*core_, analyze_line("r2"));
  EXPECT_EQ(ok.find("status")->as_string(), "ok");
  EXPECT_EQ(ok.find("exit")->as_int(), 0);
}

TEST_F(ServeFaultTest, EnqueueThrowReleasesTheSlot) {
  build({plan_for("enqueue:throw", /*count=*/1)});
  const JsonValue failed = roundtrip(*core_, analyze_line("r1"));
  EXPECT_EQ(failed.find("status")->as_string(), "error");
  // All 8 slots are free again: fill the queue without a shed.
  for (int i = 0; i < 8; ++i) {
    const JsonValue ok = roundtrip(*core_, analyze_line("q" + std::to_string(i)));
    EXPECT_EQ(ok.find("status")->as_string(), "ok") << i;
  }
}

TEST_F(ServeFaultTest, CacheReadThrowFailsRequestNotDaemon) {
  build({plan_for("cache-read:throw", /*count=*/1)});
  const JsonValue failed = roundtrip(*core_, analyze_line("r1"));
  EXPECT_EQ(failed.find("status")->as_string(), "error");
  EXPECT_NE(failed.find("reason")->as_string().find("serve-cache-read"),
            std::string::npos);
  const JsonValue ok = roundtrip(*core_, analyze_line("r2"));
  EXPECT_EQ(ok.find("status")->as_string(), "ok");
  EXPECT_EQ(ok.find("cache")->as_string(), "miss");
}

TEST_F(ServeFaultTest, CacheWriteThrowDegradesToUncached) {
  build({plan_for("cache-write:throw", /*count=*/1)});
  // The response is unaffected; only the store is lost.
  const JsonValue first = roundtrip(*core_, analyze_line("r1"));
  ASSERT_EQ(first.find("status")->as_string(), "ok");
  EXPECT_EQ(first.find("cache")->as_string(), "miss");
  const JsonValue second = roundtrip(*core_, analyze_line("r2"));
  ASSERT_EQ(second.find("status")->as_string(), "ok");
  // Store was dropped, so this is a miss again — and identical bytes.
  EXPECT_EQ(second.find("cache")->as_string(), "miss");
  EXPECT_EQ(second.find("output")->as_string(),
            first.find("output")->as_string());
  // Third time the write goes through; fourth is the warm hit.
  roundtrip(*core_, analyze_line("r3"));
  const JsonValue warm = roundtrip(*core_, analyze_line("r4"));
  EXPECT_EQ(warm.find("cache")->as_string(), "hit");
  EXPECT_EQ(warm.find("output")->as_string(),
            first.find("output")->as_string());
}

TEST_F(ServeFaultTest, CacheWriteCorruptionIsDetectedEvictedRecomputed) {
  build({plan_for("cache-write:corrupt", /*count=*/1)});
  const JsonValue first = roundtrip(*core_, analyze_line("r1"));
  ASSERT_EQ(first.find("status")->as_string(), "ok");

  // The stored entry was bit-flipped. The next lookup must detect the
  // damage, evict, recompute, and return bytes identical to the clean run.
  const JsonValue second = roundtrip(*core_, analyze_line("r2"));
  ASSERT_EQ(second.find("status")->as_string(), "ok");
  EXPECT_EQ(second.find("cache")->as_string(), "miss");  // not served corrupt
  EXPECT_EQ(second.find("output")->as_string(),
            first.find("output")->as_string());
  EXPECT_EQ(second.find("manifest_sha")->as_string(),
            first.find("manifest_sha")->as_string());

  // The recomputed store is clean: now it hits.
  const JsonValue third = roundtrip(*core_, analyze_line("r3"));
  EXPECT_EQ(third.find("cache")->as_string(), "hit");

  // Stats prove the eviction happened exactly once.
  const JsonValue stats = roundtrip(*core_, R"({"op":"stats"})");
  const JsonValue* cache = stats.find("stats")->find("cache");
  EXPECT_EQ(cache->find("evictions")->as_int(), 1);
}

TEST_F(ServeFaultTest, RespondThrowWithholdsResponseAndJournalOwesIt) {
  build({plan_for("respond:throw", /*count=*/1)}, /*with_journal=*/true);
  // r1 uses a distinct seed so its cache key — and thus its journal
  // record — is its own (identical requests share a key on purpose: one
  // settled twin settles them all).
  const std::string r1 = R"({"id":"r1","module_text":)" +
                         json_quote(kModule) +
                         R"(,"name":"lost_update","options":{"seed":7}})";
  bool responded = true;
  roundtrip(*core_, r1, &responded, /*timeout_s=*/2);
  EXPECT_FALSE(responded);  // dropped mid-respond, like a daemon death

  // The daemon itself keeps serving...
  const JsonValue ok = roundtrip(*core_, analyze_line("r2"));
  EXPECT_EQ(ok.find("status")->as_string(), "ok");
  // ...but the first request's A record is still owed. Check after the
  // drain so both requests' journal records are settled deterministically.
  core_->shutdown();
  JsonValue stats;
  std::string parse_err;
  ASSERT_TRUE(JsonValue::parse(strip_newline(core_->stats_response()), stats,
                               parse_err));
  EXPECT_EQ(stats.find("stats")->find("dropped_responses")->as_int(), 1);
  EXPECT_EQ(
      stats.find("stats")->find("journal")->find("pending")->as_int(), 1);

  // "Restart": a fresh core on the same journal replays it into the cache.
  ServiceCore::Config config;
  config.cache_dir = dir_.path() + "/cache";
  config.journal_path = dir_.path() + "/journal.log";
  ServiceCore reborn(config);
  EXPECT_EQ(reborn.recover_journal(), 1u);
  reborn.start();
  const std::string r3 = R"({"id":"r3","module_text":)" +
                         json_quote(kModule) +
                         R"(,"name":"lost_update","options":{"seed":7}})";
  const JsonValue warm = roundtrip(reborn, r3);
  EXPECT_EQ(warm.find("status")->as_string(), "ok");
  EXPECT_EQ(warm.find("cache")->as_string(), "hit");
  // The replayed result is byte-identical to a fresh seed-7 run.
  Executor executor;
  AnalysisOptions seed7;
  seed7.seed = 7;
  const ExecResult expected = executor.run(kModule, "lost_update", seed7);
  EXPECT_EQ(warm.find("output")->as_string(), expected.output);
  reborn.shutdown();
}

TEST_F(ServeFaultTest, PipelineFaultDegradesNotDies) {
  // A pipeline-stage fault (detect:throw) rides into the analysis and is
  // absorbed by the resilience layer: the response reports a degraded run,
  // the daemon stays up.
  auto pipeline_faults = std::make_unique<support::FaultInjector>();
  pipeline_faults->add_plan(plan_for("detect:throw"));
  ServiceCore::Config config;
  config.cache_dir = dir_.path() + "/cache";
  config.pipeline_faults = pipeline_faults.get();
  ServiceCore core(config);
  core.start();
  const JsonValue value = roundtrip(core, analyze_line("r1"));
  ASSERT_EQ(value.find("status")->as_string(), "ok");
  EXPECT_EQ(value.find("exit")->as_int(), 0);
  EXPECT_NE(value.find("output")->as_string().find("injected"),
            std::string::npos);
  core.shutdown();
}

TEST_F(ServeFaultTest, ShedAndDrainLifecycle) {
  build({});
  // Overfill a depth-8 queue from one client capped at 8.
  ServiceCore& core = *core_;
  std::mutex mutex;
  std::vector<std::string> immediate;
  int pending = 0;
  std::condition_variable done;
  for (int i = 0; i < 12; ++i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++pending;
    }
    core.handle_line(analyze_line("s" + std::to_string(i)), "one-client",
                     [&](const std::string& text) {
                       std::lock_guard<std::mutex> inner(mutex);
                       immediate.push_back(text);
                       --pending;
                       done.notify_all();
                     });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(done.wait_for(lock, std::chrono::seconds(120),
                              [&] { return pending == 0; }));
  }
  int ok = 0;
  int rejected = 0;
  for (const std::string& line : immediate) {
    JsonValue value;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(strip_newline(line), value, error));
    const std::string& status = value.find("status")->as_string();
    if (status == "ok") ++ok;
    if (status == "rejected") {
      ++rejected;
      EXPECT_EQ(value.find("reason")->as_string(),
                "client_inflight_exceeded");
      EXPECT_GT(value.find("retry_after_ms")->as_int(), 0);
    }
  }
  EXPECT_EQ(ok + rejected, 12);
  EXPECT_GE(rejected, 1);  // the cap really shed

  // After drain, everything sheds with shutting_down.
  core.begin_drain();
  const JsonValue shed = roundtrip(core, analyze_line("late"));
  EXPECT_EQ(shed.find("status")->as_string(), "rejected");
  EXPECT_EQ(shed.find("reason")->as_string(), "shutting_down");
}

}  // namespace
}  // namespace owl::serve
