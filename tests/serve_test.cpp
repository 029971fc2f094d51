// Unit tests for the serve substrate: SHA-256 (FIPS vectors), the strict
// JSON parser, the wire protocol (parse/serialize round-trips, canonical
// option blobs), the content-addressed result cache (atomicity, integrity
// verify/evict), the crash-recovery journal (torn and corrupt lines), and
// the admission queue's shed policy.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "serve/journal.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/request_queue.hpp"
#include "serve/result_cache.hpp"
#include "support/sha256.hpp"

namespace owl::serve {
namespace {

/// Self-cleaning scratch directory for cache/journal tests.
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/owl_serve_test_XXXXXX";
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// ---- SHA-256 ----

TEST(Sha256Test, FipsVectors) {
  EXPECT_EQ(
      support::sha256_hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      support::sha256_hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      support::sha256_hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  support::Sha256 hash;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hash.update(chunk);
  EXPECT_EQ(
      hash.hex_digest(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    support::Sha256 hash;
    hash.update(std::string_view(text).substr(0, cut));
    hash.update(std::string_view(text).substr(cut));
    EXPECT_EQ(hash.hex_digest(), support::sha256_hex(text)) << "cut=" << cut;
  }
}

// ---- JSON parser ----

TEST(JsonTest, ParsesScalarsAndNesting) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(
      R"({"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{}})",
      value, error))
      << error;
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(value.find("b")->as_double(), -2.5);
  EXPECT_EQ(value.find("c")->as_string(), "x\n\"y\"");
  ASSERT_TRUE(value.find("d")->is_array());
  EXPECT_EQ(value.find("d")->as_array().size(), 3u);
  EXPECT_TRUE(value.find("e")->is_object());
  EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(R"("\u0041\u00e9\ud83d\ude00")", value, error))
      << error;
  EXPECT_EQ(value.as_string(), "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonValue::parse("", value, error));
  EXPECT_FALSE(JsonValue::parse("{", value, error));
  EXPECT_FALSE(JsonValue::parse("{}x", value, error));  // trailing garbage
  EXPECT_FALSE(JsonValue::parse("{'a':1}", value, error));
  EXPECT_FALSE(JsonValue::parse("[1,]", value, error));
  EXPECT_FALSE(JsonValue::parse("\"\\q\"", value, error));
  EXPECT_FALSE(JsonValue::parse("01", value, error));
}

TEST(JsonTest, RejectsRunawayNesting) {
  JsonValue value;
  std::string error;
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::parse(deep, value, error));
}

// ---- protocol ----

TEST(ProtocolTest, ParsesMinimalAnalyzeRequest) {
  Request request;
  const Status status =
      parse_request(R"({"module_path":"a.mir"})", request);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(request.op, Request::Op::kAnalyze);
  EXPECT_EQ(request.module_path, "a.mir");
  EXPECT_EQ(request.display_name(), "a.mir");
  // Defaults mirror owl_cli.
  EXPECT_EQ(request.options.entry, "main");
  EXPECT_EQ(request.options.schedules, 4u);
  EXPECT_EQ(request.options.seed, 1u);
  EXPECT_EQ(request.options.retries, 2u);
}

TEST(ProtocolTest, ParsesOptionsAndOps) {
  Request request;
  ASSERT_TRUE(parse_request(
                  R"({"op":"analyze","id":"r9","client":"ci",)"
                  R"("module_text":"module m\n","name":"m",)"
                  R"("options":{"detector":"ski",)"
                  R"("schedules":7,"seed":42,"jobs":4,"quiet":true,)"
                  R"("inputs":[1,-2,3]}})",
                  request)
                  .is_ok());
  EXPECT_EQ(request.id, "r9");
  EXPECT_EQ(request.display_name(), "m");
  EXPECT_EQ(request.options.detector, core::DetectorKind::kSki);
  EXPECT_EQ(request.options.schedules, 7u);
  EXPECT_EQ(request.options.seed, 42u);
  EXPECT_EQ(request.options.jobs, 4u);
  EXPECT_TRUE(request.options.quiet);
  EXPECT_EQ(request.options.inputs, (std::vector<std::int64_t>{1, -2, 3}));

  ASSERT_TRUE(parse_request(R"({"op":"ping"})", request).is_ok());
  EXPECT_EQ(request.op, Request::Op::kPing);
  ASSERT_TRUE(parse_request(R"({"op":"stats"})", request).is_ok());
  EXPECT_EQ(request.op, Request::Op::kStats);
  ASSERT_TRUE(parse_request(R"({"op":"shutdown"})", request).is_ok());
  EXPECT_EQ(request.op, Request::Op::kShutdown);
}

TEST(ProtocolTest, StrictnessRejectsWrongShapes) {
  Request request;
  // Unknown request field.
  EXPECT_FALSE(parse_request(R"({"module_path":"a","surprise":1})", request)
                   .is_ok());
  // Unknown option: would silently answer for the wrong owl_cli run.
  EXPECT_FALSE(
      parse_request(R"({"module_path":"a","options":{"shedules":4}})",
                    request)
          .is_ok());
  // The detection substrate is no longer an option (one substrate ships).
  EXPECT_EQ(parse_request(
                R"({"module_path":"a","options":{"detector_impl":"fast"}})",
                request)
                .message(),
            "unknown option \"detector_impl\"");
  // Exactly one of module_path/module_text.
  EXPECT_FALSE(parse_request(R"({"op":"analyze"})", request).is_ok());
  EXPECT_FALSE(
      parse_request(R"({"module_path":"a","module_text":"b"})", request)
          .is_ok());
  // Type errors.
  EXPECT_FALSE(parse_request(R"({"module_path":42})", request).is_ok());
  EXPECT_FALSE(
      parse_request(R"({"module_path":"a","options":{"jobs":"four"}})",
                    request)
          .is_ok());
  EXPECT_FALSE(parse_request("not json", request).is_ok());
}

TEST(ProtocolTest, SerializeRoundTripsToTheSameCacheKey) {
  Request request;
  ASSERT_TRUE(parse_request(
                  R"({"id":"x","client":"ci","module_text":"module m\n",)"
                  R"("options":{"detector":"atomicity","seed":9,)"
                  R"("inputs":[3,1],"stage_deadline":1.5,"adhoc":false}})",
                  request)
                  .is_ok());
  const std::string line = serialize_request(request);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  Request replayed;
  ASSERT_TRUE(parse_request(line, replayed).is_ok());
  EXPECT_EQ(replayed.module_text, request.module_text);
  EXPECT_EQ(replayed.display_name(), request.display_name());
  EXPECT_EQ(
      replayed.options.canonical_blob(replayed.display_name()),
      request.options.canonical_blob(request.display_name()));
}

TEST(ProtocolTest, CanonicalBlobSeparatesDistinctRequests) {
  AnalysisOptions base;
  const std::string blob = base.canonical_blob("m");
  AnalysisOptions changed = base;
  changed.seed = 2;
  EXPECT_NE(changed.canonical_blob("m"), blob);
  changed = base;
  changed.quiet = true;
  EXPECT_NE(changed.canonical_blob("m"), blob);
  changed = base;
  changed.jobs = 4;  // deliberately part of the key (see protocol.cpp)
  EXPECT_NE(changed.canonical_blob("m"), blob);
  EXPECT_NE(base.canonical_blob("other"), blob);
  EXPECT_EQ(base.canonical_blob("m"), blob);
}

TEST(ProtocolTest, CanonicalBlobSeparatesCheckerAndSarifOptions) {
  AnalysisOptions base;
  const std::string blob = base.canonical_blob("m");
  std::string error;

  // Same module + detection options, different checker selections: every
  // selection gets its own cache key (a hit would answer with output
  // missing — or carrying — the checker sections of the wrong run).
  AnalysisOptions all = base;
  ASSERT_TRUE(checkers::CheckerOptions::parse("all", all.checkers, error));
  EXPECT_NE(all.canonical_blob("m"), blob);

  AnalysisOptions subset = base;
  ASSERT_TRUE(
      checkers::CheckerOptions::parse("deadlock", subset.checkers, error));
  EXPECT_NE(subset.canonical_blob("m"), blob);
  EXPECT_NE(subset.canonical_blob("m"), all.canonical_blob("m"));

  // SARIF presence changes the response bytes, so it must change the key.
  AnalysisOptions sarif = base;
  sarif.sarif = true;
  EXPECT_NE(sarif.canonical_blob("m"), blob);

  // Client comma order is canonicalized away: the same selection spelled
  // two ways hashes to one key.
  AnalysisOptions spelled_a = base;
  AnalysisOptions spelled_b = base;
  ASSERT_TRUE(checkers::CheckerOptions::parse("condvar,deadlock",
                                              spelled_a.checkers, error));
  ASSERT_TRUE(checkers::CheckerOptions::parse("deadlock,condvar",
                                              spelled_b.checkers, error));
  EXPECT_EQ(spelled_a.canonical_blob("m"), spelled_b.canonical_blob("m"));

  // And the checker fields round-trip through the journal A-record form.
  Request request;
  request.module_text = "module m\n";
  request.options = all;
  request.options.sarif = true;
  Request replayed;
  ASSERT_TRUE(parse_request(serialize_request(request), replayed).is_ok());
  EXPECT_EQ(replayed.options.canonical_blob(replayed.display_name()),
            request.options.canonical_blob(request.display_name()));
}

// The cache key hashes these exact bytes: a change to any line silently
// re-keys every cached entry, so the v7 format is pinned for the default
// request and for a request with every field away from its default.
TEST(ProtocolTest, CanonicalBlobV7BytesArePinned) {
  EXPECT_EQ(AnalysisOptions().canonical_blob("m"),
            "owl-options-v7\nname=m\nentry=main\ninputs=\nexploit_inputs=\n"
            "detector=tsan\nprescreen=off\npredict=off\n"
            "vuln_flow=off\nschedules=4\nseed=1\nmax_steps=400000\nadhoc=1\n"
            "race_verifier=1\nvuln_verifier=1\nwhole_program=0\n"
            "print_module=0\nprint_reports=0\nquiet=0\nstage_deadline=0\n"
            "retries=2\njobs=1\ncheckers=off\nsarif=0\nrepair=0\n");

  AnalysisOptions all;
  all.entry = "start";
  all.inputs = {3, -1};
  all.exploit_inputs = {7};
  all.detector = core::DetectorKind::kSki;
  all.prescreen = support::AuditMode::kAudit;
  all.predict = support::AuditMode::kOn;
  all.vuln_flow = support::AuditMode::kAudit;
  all.schedules = 9;
  all.seed = 42;
  all.max_steps = 1000;
  all.adhoc = false;
  all.race_verifier = false;
  all.vuln_verifier = false;
  all.whole_program = true;
  all.print_module = true;
  all.print_reports = true;
  all.quiet = true;
  all.stage_deadline = 0.25;
  all.retries = 5;
  all.jobs = 3;
  all.checkers.condvar = true;
  all.checkers.deadlock = true;
  all.sarif = true;
  all.repair = true;
  EXPECT_EQ(all.canonical_blob("dir/x.mir"),
            "owl-options-v7\nname=dir/x.mir\nentry=start\ninputs=3,-1\n"
            "exploit_inputs=7\ndetector=ski\n"
            "prescreen=audit\npredict=on\nvuln_flow=audit\nschedules=9\n"
            "seed=42\nmax_steps=1000\nadhoc=0\nrace_verifier=0\n"
            "vuln_verifier=0\nwhole_program=1\nprint_module=1\n"
            "print_reports=1\nquiet=1\nstage_deadline=0.25\nretries=5\n"
            "jobs=3\ncheckers=deadlock,condvar\nsarif=1\nrepair=1\n");
}

// v5 printed stage_deadline with %.6f, so a 1e-7 s deadline — which the
// executor honours, degrading the run — shared the default request's key
// and its journal line replayed as "no deadline".
TEST(ProtocolTest, StageDeadlineKeysAndRoundTripsExactly) {
  AnalysisOptions none;
  AnalysisOptions tiny;
  tiny.stage_deadline = 1e-7;
  EXPECT_NE(ResultCache::key_for("module m\n", tiny.canonical_blob("m")),
            ResultCache::key_for("module m\n", none.canonical_blob("m")));

  Request request;
  request.module_text = "module m\n";
  request.options = tiny;
  Request replayed;
  ASSERT_TRUE(parse_request(serialize_request(request), replayed).is_ok());
  EXPECT_EQ(replayed.options.stage_deadline, 1e-7);
  EXPECT_EQ(replayed.options.canonical_blob(replayed.display_name()),
            request.options.canonical_blob(request.display_name()));
}

TEST(ProtocolTest, ResponsesAreSingleJsonLines) {
  for (const std::string& line :
       {ok_response("r1", "hit", 0, false, "sha", "out\nput", ""),
        rejected_response("r2", "queue_full", 100),
        error_response("r3", "bad \"quote\""), ping_response()}) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    JsonValue value;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(
        std::string_view(line).substr(0, line.size() - 1), value, error))
        << line;
  }
  JsonValue value;
  std::string error;
  const std::string ok =
      ok_response("r", "miss", 3, true, "abc", "output", "audit\n");
  ASSERT_TRUE(JsonValue::parse(
      std::string_view(ok).substr(0, ok.size() - 1), value, error));
  EXPECT_EQ(value.find("exit")->as_int(), 3);
  EXPECT_TRUE(value.find("degraded")->as_bool());
  EXPECT_EQ(value.find("output")->as_string(), "output");
  EXPECT_EQ(value.find("error")->as_string(), "audit\n");
}

// ---- result cache ----

TEST(ResultCacheTest, DisabledCacheMissesAndDropsStores) {
  ResultCache cache("");
  EXPECT_FALSE(cache.enabled());
  CacheEntry entry;
  entry.output = "x";
  EXPECT_FALSE(cache.store("k", entry));
  EXPECT_FALSE(cache.load("k", entry));
}

TEST(ResultCacheTest, StoreLoadRoundTrip) {
  TempDir dir;
  ResultCache cache(dir.path());
  const std::string key = ResultCache::key_for("module m\n", "options");
  EXPECT_EQ(key.size(), 64u);

  CacheEntry entry;
  entry.exit_code = 3;
  entry.degraded = true;
  entry.manifest = "{\"m\":1}\n";
  entry.output = "line1\nline2\n";
  ASSERT_TRUE(cache.store(key, entry));
  EXPECT_FALSE(entry.content_sha.empty());

  CacheEntry loaded;
  ASSERT_TRUE(cache.load(key, loaded));
  EXPECT_EQ(loaded.exit_code, 3);
  EXPECT_TRUE(loaded.degraded);
  EXPECT_EQ(loaded.manifest, entry.manifest);
  EXPECT_EQ(loaded.output, entry.output);
  EXPECT_EQ(loaded.content_sha, entry.content_sha);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.stores(), 1u);
}

TEST(ResultCacheTest, KeySeparatesModuleAndOptions) {
  const std::string key = ResultCache::key_for("mod", "opt");
  EXPECT_NE(ResultCache::key_for("mod2", "opt"), key);
  EXPECT_NE(ResultCache::key_for("mod", "opt2"), key);
  EXPECT_EQ(ResultCache::key_for("mod", "opt"), key);
}

TEST(ResultCacheTest, CorruptEntryIsEvictedNeverServed) {
  TempDir dir;
  ResultCache cache(dir.path());
  const std::string key = ResultCache::key_for("m", "o");
  CacheEntry entry;
  entry.output = "the cached analysis output";
  entry.manifest = "{}\n";
  ASSERT_TRUE(cache.store(key, entry));

  // Bit-flip one payload byte on disk.
  const std::string path = cache.entry_path(key);
  std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() - 3] ^= 0x01;
  write_file(path, bytes);

  CacheEntry loaded;
  EXPECT_FALSE(cache.load(key, loaded));  // detected, not served
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(read_file(path).empty());  // evicted from disk

  // A recompute-and-store heals the entry.
  ASSERT_TRUE(cache.store(key, entry));
  EXPECT_TRUE(cache.load(key, loaded));
  EXPECT_EQ(loaded.output, entry.output);
}

TEST(ResultCacheTest, TruncatedEntryIsAMiss) {
  TempDir dir;
  ResultCache cache(dir.path());
  const std::string key = ResultCache::key_for("m", "o");
  CacheEntry entry;
  entry.output = std::string(1000, 'x');
  ASSERT_TRUE(cache.store(key, entry));
  const std::string path = cache.entry_path(key);
  write_file(path, read_file(path).substr(0, 100));
  CacheEntry loaded;
  EXPECT_FALSE(cache.load(key, loaded));
}

TEST(ResultCacheTest, SweepsStaleTempFilesOnOpen) {
  TempDir dir;
  write_file(dir.path() + "/killed-writer.tmp", "torn");
  ResultCache cache(dir.path());
  EXPECT_TRUE(read_file(dir.path() + "/killed-writer.tmp").empty());
}

TEST(ResultCacheTest, LruCapEvictsOldestOnStore) {
  TempDir dir;
  ResultCache cache(dir.path(), /*max_entries=*/2);
  const auto key = [](int i) {
    return ResultCache::key_for("m" + std::to_string(i), "o");
  };
  CacheEntry entry;
  entry.output = "payload";
  ASSERT_TRUE(cache.store(key(1), entry));
  ASSERT_TRUE(cache.store(key(2), entry));
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.tracked_entries(), 2u);

  // The third store pushes past the cap: key(1) is oldest, so it goes.
  ASSERT_TRUE(cache.store(key(3), entry));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.tracked_entries(), 2u);
  CacheEntry loaded;
  EXPECT_FALSE(cache.load(key(1), loaded));
  EXPECT_TRUE(read_file(cache.entry_path(key(1))).empty());
  EXPECT_TRUE(cache.load(key(2), loaded));
  EXPECT_TRUE(cache.load(key(3), loaded));

  // An evicted key simply recomputes and stores cleanly.
  ASSERT_TRUE(cache.store(key(1), entry));
  EXPECT_TRUE(cache.load(key(1), loaded));
  EXPECT_EQ(loaded.output, entry.output);
  EXPECT_EQ(cache.tracked_entries(), 2u);
}

TEST(ResultCacheTest, LruCapHitRefreshesRecency) {
  TempDir dir;
  ResultCache cache(dir.path(), /*max_entries=*/2);
  const std::string a = ResultCache::key_for("a", "o");
  const std::string b = ResultCache::key_for("b", "o");
  const std::string c = ResultCache::key_for("c", "o");
  CacheEntry entry;
  entry.output = "payload";
  ASSERT_TRUE(cache.store(a, entry));
  ASSERT_TRUE(cache.store(b, entry));

  // Touch `a`: now `b` is the LRU victim of the next store.
  CacheEntry loaded;
  ASSERT_TRUE(cache.load(a, loaded));
  ASSERT_TRUE(cache.store(c, entry));
  EXPECT_TRUE(cache.load(a, loaded));
  EXPECT_FALSE(cache.load(b, loaded));
  EXPECT_TRUE(cache.load(c, loaded));
}

TEST(ResultCacheTest, LruCapSeedsRecencyFromDirectoryOnRestart) {
  TempDir dir;
  const std::string a = ResultCache::key_for("a", "o");
  const std::string b = ResultCache::key_for("b", "o");
  CacheEntry entry;
  entry.output = "payload";
  {
    ResultCache cache(dir.path(), /*max_entries=*/4);
    ASSERT_TRUE(cache.store(a, entry));
    ASSERT_TRUE(cache.store(b, entry));
  }
  // A restarted cache adopts the surviving entries; a store within the cap
  // evicts nothing, one past it evicts the seeded survivors first.
  ResultCache cache(dir.path(), /*max_entries=*/2);
  EXPECT_EQ(cache.tracked_entries(), 2u);
  ASSERT_TRUE(cache.store(ResultCache::key_for("c", "o"), entry));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.tracked_entries(), 2u);
}

TEST(ResultCacheTest, LruCapTighterThanDirectoryPrunesOnOpen) {
  TempDir dir;
  CacheEntry entry;
  entry.output = "payload";
  {
    ResultCache cache(dir.path());  // unlimited
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(cache.store(
          ResultCache::key_for("m" + std::to_string(i), "o"), entry));
    }
  }
  ResultCache cache(dir.path(), /*max_entries=*/2);
  EXPECT_EQ(cache.tracked_entries(), 2u);
  EXPECT_EQ(cache.evictions(), 3u);
}

TEST(ResultCacheTest, UnlimitedCacheNeverEvictsForCapacity) {
  TempDir dir;
  ResultCache cache(dir.path());  // max_entries = 0
  CacheEntry entry;
  entry.output = "payload";
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cache.store(
        ResultCache::key_for("m" + std::to_string(i), "o"), entry));
  }
  EXPECT_EQ(cache.evictions(), 0u);
  CacheEntry loaded;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(cache.load(ResultCache::key_for("m" + std::to_string(i), "o"),
                           loaded));
  }
}

// ---- journal ----

TEST(JournalTest, RecoversAcceptedWithoutCompleted) {
  TempDir dir;
  const std::string path = dir.path() + "/journal.log";
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path));
    ASSERT_TRUE(journal.accepted("k1", R"({"id":"a"})"));
    ASSERT_TRUE(journal.accepted("k2", R"({"id":"b"})"));
    ASSERT_TRUE(journal.completed("k1"));
  }
  Journal reopened;
  ASSERT_TRUE(reopened.open(path));
  const std::vector<JournalEntry> entries = reopened.recover();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "k2");
  EXPECT_EQ(entries[0].request_line, R"({"id":"b"})");
}

TEST(JournalTest, DisabledJournalIsANoOp) {
  Journal journal;
  ASSERT_TRUE(journal.open(""));
  EXPECT_FALSE(journal.enabled());
  EXPECT_TRUE(journal.accepted("k", "r"));
  EXPECT_TRUE(journal.recover().empty());
}

TEST(JournalTest, TornFinalLineIsIgnored) {
  TempDir dir;
  const std::string path = dir.path() + "/journal.log";
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path));
    ASSERT_TRUE(journal.accepted("k1", R"({"id":"a"})"));
  }
  // Simulate a kill -9 mid-write: append a record with no trailing '\n'.
  std::string bytes = read_file(path);
  write_file(path, bytes + "A\tk2\tdeadbeef\t{\"id\":\"torn");

  Journal journal;
  ASSERT_TRUE(journal.open(path));
  const std::vector<JournalEntry> entries = journal.recover();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "k1");
}

TEST(JournalTest, CorruptLineIsSkippedNotReplayed) {
  TempDir dir;
  const std::string path = dir.path() + "/journal.log";
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path));
    ASSERT_TRUE(journal.accepted("k1", R"({"id":"a"})"));
    ASSERT_TRUE(journal.accepted("k2", R"({"id":"b"})"));
  }
  // Bit-flip a byte inside the first record's payload: its line sha no
  // longer matches, so it must be skipped rather than replayed wrong.
  std::string bytes = read_file(path);
  const std::size_t at = bytes.find("\"a\"");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 1] ^= 0x01;
  write_file(path, bytes);

  Journal journal;
  ASSERT_TRUE(journal.open(path));
  const std::vector<JournalEntry> entries = journal.recover();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "k2");
}

TEST(JournalTest, ResetTruncates) {
  TempDir dir;
  const std::string path = dir.path() + "/journal.log";
  Journal journal;
  ASSERT_TRUE(journal.open(path));
  ASSERT_TRUE(journal.accepted("k1", "r"));
  ASSERT_TRUE(journal.reset());
  EXPECT_TRUE(journal.recover().empty());
  EXPECT_TRUE(read_file(path).empty());
  // Still usable after reset.
  ASSERT_TRUE(journal.accepted("k2", "r2"));
  EXPECT_EQ(journal.recover().size(), 1u);
}

// ---- admission queue ----

TEST(RequestQueueTest, ShedsAtCapacity) {
  RequestQueue<int> queue(/*capacity=*/2, /*max_inflight_per_client=*/2);
  EXPECT_EQ(queue.admit("a"), std::nullopt);
  EXPECT_EQ(queue.admit("b"), std::nullopt);
  EXPECT_EQ(queue.admit("c"), ShedReason::kQueueFull);
  queue.release("a");
  EXPECT_EQ(queue.admit("c"), std::nullopt);
}

TEST(RequestQueueTest, ShedsPerClientBeforeCapacity) {
  RequestQueue<int> queue(/*capacity=*/8, /*max_inflight_per_client=*/2);
  EXPECT_EQ(queue.admit("chatty"), std::nullopt);
  EXPECT_EQ(queue.admit("chatty"), std::nullopt);
  EXPECT_EQ(queue.admit("chatty"), ShedReason::kClientInflight);
  EXPECT_EQ(queue.admit("other"), std::nullopt);  // others unaffected
  queue.release("chatty");
  EXPECT_EQ(queue.admit("chatty"), std::nullopt);
}

TEST(RequestQueueTest, DrainingShedsNewWorkKeepsOld) {
  RequestQueue<int> queue(4, 4);
  EXPECT_EQ(queue.admit("a"), std::nullopt);
  queue.push(1);
  queue.begin_drain();
  EXPECT_EQ(queue.admit("b"), ShedReason::kShuttingDown);
  // Admitted work still flows.
  EXPECT_EQ(queue.pop(), 1);
  queue.release("a");
  queue.stop();
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(RequestQueueTest, StopDrainsQueuedWorkFirst) {
  RequestQueue<int> queue(4, 4);
  ASSERT_EQ(queue.admit("a"), std::nullopt);
  ASSERT_EQ(queue.admit("a"), std::nullopt);
  queue.push(1);
  queue.push(2);
  queue.stop();
  EXPECT_EQ(queue.pop(), 1);  // never discards admitted work
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(RequestQueueTest, WaitIdleBlocksUntilReleased) {
  RequestQueue<int> queue(4, 4);
  ASSERT_EQ(queue.admit("a"), std::nullopt);
  std::thread releaser([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.release("a");
  });
  queue.wait_idle();  // returns only after the release
  EXPECT_EQ(queue.held(), 0u);
  releaser.join();
}

}  // namespace
}  // namespace owl::serve
