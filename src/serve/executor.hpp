// Per-request analysis execution for the serve layer (DESIGN.md §10).
//
// One Executor::run() is one `owl_cli <module> [flags]` invocation run in
// process: it calls core::analyze, the run path owl_cli itself takes, so
// the returned output/exit are byte-identical to the one-shot CLI by
// construction — which is what the differential gate verifies end to end.
//
// Isolation: every run builds its module, machines, detectors, and
// pipeline from scratch, and the process-wide MetricsRegistry is reset()
// at entry — a request observes exactly the state a fresh owl_cli process
// would. That reset is also why the daemon executes requests one at a time
// (the executor is owned and driven by a single ServiceCore thread):
// serialized execution is a *correctness* choice — it is what makes every
// response reproducible — while throughput comes from the result cache and
// per-request --jobs parallelism, not from interleaving analyses that share
// process globals.
#pragma once

#include <string>

#include "core/analyze.hpp"
#include "serve/protocol.hpp"
#include "support/fault_injector.hpp"

namespace owl::serve {

/// Outcome of one analysis execution; Executor::run strips the manifest's
/// environment tail (the cache seals the deterministic body).
using ExecResult = core::AnalysisOutcome;

class Executor {
 public:
  /// `pipeline_faults` (optional, not owned) injects pipeline-stage faults
  /// into every request — the daemon-level equivalent of owl_cli
  /// --inject-fault detect:..., used by serve_fault_test and serve_check.
  explicit Executor(support::FaultInjector* pipeline_faults = nullptr)
      : pipeline_faults_(pipeline_faults) {}

  /// Executes one analysis request. Never throws: internal faults degrade
  /// into the FailureRecord machinery (pipeline stages) or an exit-1/2
  /// ExecResult (load phase).
  ExecResult run(const std::string& module_text,
                 const std::string& display_name,
                 const AnalysisOptions& options);

 private:
  support::FaultInjector* pipeline_faults_;
};

/// Reads the module file the way owl_cli does; false + error text on
/// failure (the error is the owl_cli stderr line, byte-identical).
using core::read_module_file;

}  // namespace owl::serve
