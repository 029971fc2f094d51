// perfbench_driver — the measuring half of the OWL benchmark.
//
// perfbench/run.py orchestrates; this binary does one unit of work through
// the program's public entry points and prints one JSON object on stdout.
//
//   perfbench_driver sweep --config paper|extended --seed N
//                          [--trace] [--setup-only]
//       Builds the nine make_all() models in table order at noise scale 2,
//       verifies them, then per target runs Pipeline::run, the owl_cli
//       --print-reports rendering and serialize_result. Run it in a fresh
//       process per pass: MiniIR value ids come from a process-wide counter,
//       so a second build in one process would change the dumps.
//       --setup-only stops after the build and verify.
//
//   perfbench_driver replay --requests FILE --cache-dir DIR [--trace]
//       Replays serve request lines in process, serially, through the
//       daemon's own calls: parse_request, read_module_file,
//       ResultCache::key_for/load, Executor::run, ResultCache::store and
//       ok_response.
//
//   perfbench_driver client --socket PATH --requests FILE
//       Closed loop against a running owl_served: each of kConnections
//       sends its next request line only after the reply to its previous
//       one arrived.
//
// With --trace the span collector the program already has
// (support::TraceCollector) is switched on, the benchmark adds "bench.*"
// spans around the public calls the program's own spans do not cover, and
// the output carries every span plus the metrics counters per target or
// per executed request.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/render.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "serve/executor.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "support/metrics.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"
#include "workloads/registry.hpp"

using namespace owl;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// "--key value" and bare "--flag" arguments after the mode word.
struct Args {
  std::map<std::string, std::string> values;

  bool parse(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) return false;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values[arg.substr(2)] = argv[++i];
      } else {
        values[arg.substr(2)] = "";
      }
    }
    return true;
  }
  bool has(const std::string& key) const { return values.count(key) != 0; }
  std::string get(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? std::string() : it->second;
  }
};

/// This process's peak resident set, from /proc/self/status. getrusage's
/// ru_maxrss would not do: exec keeps the parent's high-water mark, so a
/// child of a larger parent reports the parent's peak.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string num(double value) { return str_format("%.9g", value); }
std::string num(std::uint64_t value) {
  return str_format("%llu", static_cast<unsigned long long>(value));
}

/// Every closed span as [name, tid, depth, start_ns, duration_ns].
std::string spans_json() {
  std::string out = "[";
  bool first = true;
  for (const support::TraceEvent& event :
       support::TraceCollector::instance().snapshot()) {
    if (!first) out += ',';
    first = false;
    out += "[" + json_quote(event.name) + "," + num(std::uint64_t{event.tid}) +
           "," + num(std::uint64_t{event.depth}) + "," + num(event.start_ns) +
           "," + num(event.duration_ns) + "]";
  }
  return out + "]";
}

/// The metrics counters as they stand (read-only: reading through
/// counter() would register names the run never touched).
std::string counters_json() {
  return "{\"behavioral\":" + support::metrics().json() +
         ",\"advisory\":" + support::metrics().advisory_json() + "}";
}

bool read_lines(const std::string& path, std::vector<std::string>& lines) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return true;
}

// --- sweep ---------------------------------------------------------------

int run_sweep(const Args& args) {
  const std::string config = args.get("config");
  if (config != "paper" && config != "extended") {
    std::fprintf(stderr, "perfbench_driver: --config paper|extended\n");
    return 1;
  }
  std::int64_t seed = 0;
  if (!parse_int64(args.get("seed"), seed) || seed < 0) {
    std::fprintf(stderr, "perfbench_driver: --seed N\n");
    return 1;
  }
  // Scale 10 (paper magnitude) does not finish today; scale 2 keeps one
  // sweep pass under ten seconds while race verification (memcached) and
  // the canonical dump (linux) still dominate sweep-paper.
  workloads::NoiseProfile profile;
  profile.scale = 2;
  const bool trace = args.has("trace");
  support::TraceCollector::instance().set_enabled(trace);

  const Clock::time_point build_start = Clock::now();
  std::vector<workloads::Workload> all;
  {
    support::TraceSpan span("bench.build", "make_all");
    all = workloads::make_all(profile);
  }
  const Clock::time_point verify_start = Clock::now();
  std::vector<std::string> verify_errors;
  std::uint64_t instructions = 0;
  for (const workloads::Workload& w : all) {
    support::TraceSpan span("bench.verify", w.name);
    const Status status = ir::verify_module(*w.module);
    verify_errors.push_back(status.is_ok() ? "" : status.to_string());
    instructions += w.module->instruction_count();
  }
  const Clock::time_point setup_end = Clock::now();

  // --setup-only: one more set-up sample from a fresh process.
  const std::size_t target_count = args.has("setup-only") ? 0 : all.size();
  std::string targets = "[";
  for (std::size_t i = 0; i < target_count; ++i) {
    const workloads::Workload& w = all[i];
    core::PipelineOptions options = w.pipeline_options();
    if (config == "extended") {
      options.predict = race::PredictMode::kOn;
      options.vuln_flow = analysis::ValueFlowMode::kOn;
      options.prescreen = race::PrescreenMode::kOn;
      options.checkers.deadlock = true;
      options.checkers.atomicity = true;
      options.checkers.lock_mismatch = true;
      options.checkers.condvar = true;
    }
    const core::PipelineTarget target =
        w.target(static_cast<std::uint64_t>(seed));
    support::metrics().reset();

    std::string error = verify_errors[i];
    core::PipelineResult result;
    const Clock::time_point run_start = Clock::now();
    if (error.empty()) {
      try {
        result = core::Pipeline(options).run(target);
      } catch (const std::exception& e) {
        error = std::string("Pipeline::run threw: ") + e.what();
      }
    }
    const Clock::time_point render_start = Clock::now();
    std::string text;
    {
      support::TraceSpan span("bench.render", w.name);
      text = core::render_cli_summary(result) +
             core::render_cli_details(result, /*print_reports=*/true);
    }
    const Clock::time_point serialize_start = Clock::now();
    std::string dump;
    {
      support::TraceSpan span("bench.serialize", w.name);
      dump = core::serialize_result(result);
    }
    const Clock::time_point serialize_end = Clock::now();

    bool driver_failure = false;
    for (const support::FailureRecord& record : result.counts.failures) {
      if (record.stage == support::PipelineStage::kDriver) {
        driver_failure = true;
      }
    }
    const core::StageCounts& c = result.counts;
    if (i != 0) targets += ',';
    targets += "{\"name\":" + json_quote(w.name) +
               ",\"error\":" + json_quote(error) +
               ",\"driver_failure\":" + (driver_failure ? "true" : "false") +
               ",\"resilience\":" + json_quote(c.resilience_summary()) +
               ",\"known_attacks\":" + num(std::uint64_t{w.known_attacks}) +
               ",\"attacks_found\":" +
               num(std::uint64_t{error.empty() ? w.count_found(result) : 0}) +
               ",\"run_s\":" + num(seconds_between(run_start, render_start)) +
               ",\"render_s\":" +
               num(seconds_between(render_start, serialize_start)) +
               ",\"serialize_s\":" +
               num(seconds_between(serialize_start, serialize_end)) +
               ",\"render_bytes\":" + num(std::uint64_t{text.size()}) +
               ",\"dump_bytes\":" + num(std::uint64_t{dump.size()}) +
               ",\"dump_sha256\":" + json_quote(support::sha256_hex(dump)) +
               ",\"table3\":{\"rr\":" + num(std::uint64_t{c.raw_reports}) +
               ",\"as\":" + num(std::uint64_t{c.adhoc_syncs}) +
               ",\"rve\":" + num(std::uint64_t{c.verifier_eliminated}) +
               ",\"r\":" + num(std::uint64_t{c.remaining}) +
               ",\"exploits\":" + num(std::uint64_t{result.exploits.size()}) +
               ",\"attacks\":" +
               num(std::uint64_t{result.confirmed_attacks()}) + "}" +
               (trace ? ",\"counters\":" + counters_json() : "") + "}";
  }
  targets += "]";

  std::string out = "{\"mode\":\"sweep\",\"config\":" + json_quote(config) +
                    ",\"seed\":" + num(static_cast<std::uint64_t>(seed)) +
                    ",\"build_s\":" +
                    num(seconds_between(build_start, verify_start)) +
                    ",\"verify_s\":" +
                    num(seconds_between(verify_start, setup_end)) +
                    ",\"instructions\":" + num(instructions) +
                    ",\"peak_rss_kb\":" + num(peak_rss_kb()) +
                    ",\"targets\":" + targets;
  if (trace) out += ",\"spans\":" + spans_json();
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

// --- replay --------------------------------------------------------------

int run_replay(const Args& args) {
  std::vector<std::string> lines;
  if (!read_lines(args.get("requests"), lines) || args.get("cache-dir").empty()) {
    std::fprintf(stderr,
                 "perfbench_driver: replay --requests FILE --cache-dir DIR\n");
    return 1;
  }
  const bool trace = args.has("trace");
  support::TraceCollector::instance().set_enabled(trace);
  serve::ResultCache cache(args.get("cache-dir"));
  serve::Executor executor;

  std::string records = "[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    serve::Request request;
    std::string module_text;
    std::string error;
    bool hit = false;
    bool executed = false;
    serve::CacheEntry entry;
    std::string response;
    std::string counters = "null";
    const Clock::time_point start = Clock::now();
    {
      support::TraceSpan request_span("bench.request", "");
      bool ok = true;
      std::string key;
      {
        support::TraceSpan span("bench.protocol", "parse");
        const Status status = serve::parse_request(lines[i], request);
        if (!status.is_ok()) {
          error = status.to_string();
          ok = false;
        } else if (!request.module_path.empty()) {
          ok = serve::read_module_file(request.module_path, module_text,
                                       error);
        } else {
          module_text = request.module_text;
        }
        if (ok) {
          key = serve::ResultCache::key_for(
              module_text, request.options.canonical_blob(
                               request.display_name()));
        }
      }
      if (ok) {
        {
          support::TraceSpan span("bench.cache_load", "");
          hit = cache.load(key, entry);
        }
        if (!hit) {
          executed = true;
          serve::ExecResult exec;
          {
            support::TraceSpan span("bench.exec", "");
            exec = executor.run(module_text, request.display_name(),
                                request.options);
          }
          entry.exit_code = exec.exit_code;
          entry.degraded = exec.degraded;
          entry.output = std::move(exec.output);
          entry.manifest = std::move(exec.manifest);
          entry.content_sha = serve::cache_content_sha(entry);
          error = std::move(exec.error);
          support::TraceSpan span("bench.cache_store", "");
          if (exec.ran_pipeline && error.empty()) cache.store(key, entry);
        }
        support::TraceSpan span("bench.protocol", "respond");
        response = serve::ok_response(request.id, hit ? "hit" : "miss",
                                      entry.exit_code, entry.degraded,
                                      entry.content_sha, entry.output, error);
      }
    }
    const double service_s = seconds_between(start, Clock::now());
    std::uint64_t bytes_parsed = 0;
    if (trace && executed) {
      // Nothing after Executor::run touches the metrics, and it resets them
      // on entry: this is the executed request's own snapshot.
      counters = counters_json();
      // Executor::run parses and verifies inside its own span; these probes
      // time the same two calls on the same text, outside the service time.
      support::TraceSpan span("bench.parse", request.id);
      auto parsed = ir::parse_module(module_text);
      bytes_parsed = module_text.size();
      if (parsed.is_ok()) {
        support::TraceSpan verify_span("bench.verify", request.id);
        (void)ir::verify_module(*parsed.value());
      }
    }
    if (i != 0) records += ',';
    records += "{\"id\":" + json_quote(request.id) +
               ",\"status\":" + (response.empty() ? "\"error\"" : "\"ok\"") +
               ",\"error\":" + json_quote(error) +
               ",\"service_s\":" + num(service_s) +
               ",\"cache\":" + json_quote(hit ? "hit" : "miss") +
               ",\"exit\":" + std::to_string(entry.exit_code) +
               ",\"degraded\":" + (entry.degraded ? "true" : "false") +
               ",\"output_bytes\":" + num(std::uint64_t{entry.output.size()}) +
               ",\"output_sha256\":" +
               json_quote(support::sha256_hex(entry.output)) +
               ",\"bytes_parsed\":" + num(bytes_parsed) +
               ",\"repair\":" + (request.options.repair ? "true" : "false") +
               ",\"counters\":" + counters + "}";
  }
  records += "]";
  std::string out = "{\"mode\":\"replay\",\"requests\":" + records;
  if (trace) out += ",\"spans\":" + spans_json();
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

// --- client --------------------------------------------------------------

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line; `buffer` carries bytes past it.
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

// One load-generating process with at most 4 connections: the benchmark
// host has 4 cores, shared with the daemon.
constexpr int kConnections = 4;

int run_client(const Args& args) {
  std::vector<std::string> lines;
  if (!read_lines(args.get("requests"), lines) || args.get("socket").empty()) {
    std::fprintf(stderr,
                 "perfbench_driver: client --socket PATH --requests FILE\n");
    return 1;
  }
  const std::string socket_path = args.get("socket");
  struct Sample {
    double latency_s = 0.0;
    bool answered = false;
    std::string response;
  };
  std::vector<Sample> samples(lines.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    const int fd = connect_unix(socket_path);
    if (fd < 0) return;
    std::string buffer;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= lines.size()) break;
      const Clock::time_point sent = Clock::now();
      std::string reply;
      if (!write_all(fd, lines[i] + "\n") || !read_line(fd, buffer, reply)) {
        break;
      }
      samples[i].latency_s = seconds_between(sent, Clock::now());
      samples[i].answered = true;
      samples[i].response = std::move(reply);
    }
    ::close(fd);
  };
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  const double wall_s = seconds_between(start, Clock::now());

  std::string records = "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::string status = "unanswered";
    std::string cache;
    std::string sha;
    std::int64_t exit_code = -1;
    serve::JsonValue reply;
    std::string parse_error;
    if (s.answered) {
      status = "malformed";
      if (serve::JsonValue::parse(s.response, reply, parse_error)) {
        const auto text = [&](const char* key) {
          const serve::JsonValue* v = reply.find(key);
          return v != nullptr && v->is_string() ? v->as_string()
                                                : std::string();
        };
        status = text("status");
        cache = text("cache");
        if (const serve::JsonValue* v = reply.find("exit");
            v != nullptr && v->is_int()) {
          exit_code = v->as_int();
        }
        sha = support::sha256_hex(text("output"));
      }
    }
    if (i != 0) records += ',';
    records += "{\"latency_s\":" + num(s.latency_s) +
               ",\"status\":" + json_quote(status) +
               ",\"cache\":" + json_quote(cache) +
               ",\"exit\":" + std::to_string(exit_code) +
               ",\"output_sha256\":" + json_quote(sha) + "}";
  }
  records += "]";
  std::fputs(("{\"mode\":\"client\",\"wall_s\":" + num(wall_s) +
              ",\"requests\":" + records + "}\n")
                 .c_str(),
             stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2 || !args.parse(argc, argv)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver sweep|replay|client [--key value]\n");
    return 1;
  }
  const std::string mode = argv[1];
  if (mode == "sweep") return run_sweep(args);
  if (mode == "replay") return run_replay(args);
  if (mode == "client") return run_client(args);
  std::fprintf(stderr, "perfbench_driver: unknown mode %s\n", mode.c_str());
  return 1;
}
