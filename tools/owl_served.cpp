// owl_served — the OWL pipeline as a resilient long-running service.
//
// Usage:
//   owl_served --socket PATH [options]
//
// Accepts analysis requests over a Unix-domain socket (newline-delimited
// JSON; see src/serve/protocol.hpp) and answers with responses that are
// byte-identical to one-shot `owl_cli` for the same module and options —
// the property scripts/serve_check.py proves differentially.
//
// Options:
//   --socket PATH          Unix-domain socket to listen on (required)
//   --queue-depth N        admission capacity: queued + executing requests
//                          (default: 32); beyond it requests shed with a
//                          structured "queue_full" rejection
//   --max-inflight N       per-client in-flight cap (default: 8); one
//                          chatty client cannot monopolize the queue
//   --cache-dir DIR        content-addressed result cache (default: off);
//                          keyed by (module sha, options sha), entries are
//                          integrity-verified on read and corrupt ones are
//                          evicted, never served
//   --cache-max-entries N  cap on cached entries (default: 0 = unlimited);
//                          a store past the cap unlinks the least-recently-
//                          used entries, and an evicted key simply
//                          recomputes on its next request
//   --journal FILE         append-only request journal (default: off);
//                          accepted-but-unsettled requests survive kill -9
//                          and are replayed into the cache on restart
//   --retry-after-ms N     retry hint echoed in rejections (default: 100)
//   --inject-fault SPEC    deterministic fault injection, repeatable.
//                          SPEC = stage:kind[:after]; service phases
//                          (admit|enqueue|cache-read|cache-write|respond)
//                          fault the request lifecycle, pipeline stages
//                          (detect|annotate|...) fault every analysis
//
// Lifecycle: on start the journal is recovered (stranded requests are
// re-executed into the cache), then the daemon prints
// "owl_served: listening on PATH" and serves until SIGTERM/SIGINT or a
// "shutdown" op — then it stops accepting, sheds new work, drains every
// admitted request to a delivered response, and exits 0.
#include <csignal>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "serve/server.hpp"
#include "serve/service_core.hpp"
#include "support/strings.hpp"

using namespace owl;

namespace {

struct ServedOptions {
  std::string socket_path;
  std::string cache_dir;
  std::size_t cache_max_entries = 0;
  std::string journal_path;
  std::size_t queue_depth = 32;
  std::size_t max_inflight = 8;
  unsigned retry_after_ms = 100;
  std::vector<support::FaultPlan> fault_plans;
};

void usage() {
  std::fprintf(stderr,
               "usage: owl_served --socket PATH\n"
               "       [--queue-depth N] [--max-inflight N]\n"
               "       [--cache-dir DIR] [--cache-max-entries N]\n"
               "       [--journal FILE]\n"
               "       [--retry-after-ms N]\n"
               "       [--inject-fault stage:kind[:after]]\n");
}

bool parse_args(int argc, char** argv, ServedOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.socket_path = v;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.cache_dir = v;
    } else if (arg == "--cache-max-entries") {
      const char* v = next();
      std::int64_t n = 0;
      if (v == nullptr || !parse_int64(v, n) || n < 0) return false;
      options.cache_max_entries = static_cast<std::size_t>(n);
    } else if (arg == "--journal") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.journal_path = v;
    } else if (arg == "--queue-depth") {
      const char* v = next();
      std::int64_t n = 0;
      if (v == nullptr || !parse_int64(v, n) || n <= 0) return false;
      options.queue_depth = static_cast<std::size_t>(n);
    } else if (arg == "--max-inflight") {
      const char* v = next();
      std::int64_t n = 0;
      if (v == nullptr || !parse_int64(v, n) || n <= 0) return false;
      options.max_inflight = static_cast<std::size_t>(n);
    } else if (arg == "--retry-after-ms") {
      const char* v = next();
      std::int64_t n = 0;
      if (v == nullptr || !parse_int64(v, n) || n < 0) return false;
      options.retry_after_ms = static_cast<unsigned>(n);
    } else if (arg == "--inject-fault") {
      const char* v = next();
      support::FaultPlan plan;
      if (v == nullptr || !support::parse_fault_plan(v, plan)) return false;
      options.fault_plans.push_back(std::move(plan));
    } else {
      return false;
    }
  }
  return !options.socket_path.empty();
}

int g_signal_pipe_write = -1;

void on_terminate_signal(int) {
  if (g_signal_pipe_write >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe_write, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ServedOptions options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 1;
  }

  // Self-pipe: SIGTERM/SIGINT become one readable byte the accept loop
  // polls, so the drain runs on a normal thread, not in a handler.
  int signal_pipe[2] = {-1, -1};
  if (::pipe(signal_pipe) != 0) {
    std::fprintf(stderr, "owl_served: pipe(): %s\n", std::strerror(errno));
    return 1;
  }
  g_signal_pipe_write = signal_pipe[1];
  struct sigaction action {};
  action.sa_handler = on_terminate_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon

  // Split the fault plans between the two injectors: service phases probe
  // the request lifecycle, pipeline stages ride into every Executor::run.
  support::FaultInjector service_faults;
  support::FaultInjector pipeline_faults;
  for (const support::FaultPlan& plan : options.fault_plans) {
    if (support::is_service_phase(plan.stage)) {
      service_faults.add_plan(plan);
    } else {
      pipeline_faults.add_plan(plan);
    }
  }

  serve::ServiceCore::Config config;
  config.cache_dir = options.cache_dir;
  config.cache_max_entries = options.cache_max_entries;
  config.journal_path = options.journal_path;
  config.queue_depth = options.queue_depth;
  config.max_inflight_per_client = options.max_inflight;
  config.retry_after_ms = options.retry_after_ms;
  if (!service_faults.empty()) config.service_faults = &service_faults;
  if (!pipeline_faults.empty()) config.pipeline_faults = &pipeline_faults;

  serve::ServiceCore core(config);
  const std::size_t replayed = core.recover_journal();
  if (replayed != 0) {
    std::fprintf(stderr, "owl_served: replayed %zu journal entr%s\n",
                 replayed, replayed == 1 ? "y" : "ies");
  }
  core.start();

  serve::Server server(core, options.socket_path);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "owl_served: %s\n", error.c_str());
    return 1;
  }
  // The readiness line clients wait for before connecting.
  std::printf("owl_served: listening on %s\n", options.socket_path.c_str());
  std::fflush(stdout);

  const int status = server.run(signal_pipe[0]);
  ::close(signal_pipe[0]);
  ::close(signal_pipe[1]);
  std::fprintf(stderr, "owl_served: drained, exiting\n");
  return status;
}
