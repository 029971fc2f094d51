// Deterministic fault injection for the pipeline.
//
// The resilience layer's claims ("a stalled schedule, a livelocked verifier
// session, or a detector crash degrades one target, not the run") are only
// trustworthy if they can be proven on demand. The FaultInjector is that
// proof harness: the pipeline driver pushes (target, stage) context, and
// instrumented code deep in the interpreter, the debugger layer, and the
// detectors probes it at well-defined points. Plans fire deterministically
// (after N matching probes, at most M times), so every injected failure is
// replayable.
//
// Fault classes (mapped to the real-world failure modes of §5.2 and the
// surveyed detectors):
//  - kSchedulerStall:     the machine's run loop burns steps without
//                         executing instructions — a pathological schedule
//                         that burns the run's max_steps or trips the
//                         stage deadline;
//  - kBreakpointLivelock: released breakpoints re-trigger without progress
//                         — a livelocked verifier session the §5.2 release
//                         rule alone cannot break (watchdog territory);
//  - kStageException:     a spurious detector/analyzer exception at stage
//                         entry (throws InjectedFault);
//  - kTruncatedEvents:    the machine stops delivering memory/sync events
//                         to its observers mid-stream.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/failure.hpp"

namespace owl::support {

enum class FaultKind {
  kSchedulerStall,
  kBreakpointLivelock,
  kStageException,
  kTruncatedEvents,
  /// Service layer (owl_served): the probed phase hands out or persists
  /// corrupted bytes — a cache entry bit-flipped on write, or an entry
  /// declared unreadable on read. Exercises the integrity-verify/evict/
  /// recompute path without hand-editing files on disk.
  kCorruptedData,
};

/// The exception kStageException raises. Derived from std::runtime_error so
/// generic stage isolation catches it like any detector bug would be caught.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One scheduled fault. Matching is by (kind, stage, target); firing is
/// deterministic in the probe sequence.
struct FaultPlan {
  FaultKind kind = FaultKind::kStageException;
  PipelineStage stage = PipelineStage::kDetection;
  std::string target;       ///< exact workload name; empty matches any
  std::uint64_t after = 0;  ///< skip the first N matching probes
  std::uint64_t count = 0;  ///< fire at most N times (0 = unlimited)
};

/// Parses the CLI fault spec shared by owl_cli and owl_served:
/// "stage:kind[:after]" with stage in detect|annotate|race-verify|
/// vuln-analyze|vuln-verify (pipeline) or admit|enqueue|cache-read|
/// cache-write|respond (service phases) and kind in stall|livelock|throw|
/// truncate|corrupt; `after` skips the first N matching probes. Returns
/// false on malformed specs.
bool parse_fault_plan(std::string_view text, FaultPlan& plan);

/// True for the owl_served request-lifecycle phases (kServe*).
bool is_service_phase(PipelineStage stage) noexcept;

/// First firing of a plan within one (target, stage) context.
struct InjectionEvent {
  FaultKind kind;
  PipelineStage stage;
  std::string target;
};

class FaultInjector {
 public:
  void add_plan(FaultPlan plan) {
    plans_.push_back({std::move(plan), 0, 0, false});
  }
  bool empty() const noexcept { return plans_.empty(); }

  /// Independent copy for one parallel worker: same plans, fresh counters
  /// and context. Pipeline::run_many hands each target a fork, so a plan's
  /// probe/firing sequence depends only on that target's own execution —
  /// identical for jobs=1 and jobs=N. (A fork scopes lifetime state —
  /// `count` budgets — to its target; plans matching several targets fire
  /// per target rather than across the whole run.)
  FaultInjector fork() const;

  /// Merges a drained fork's accounting (events, firing total) back, in
  /// whatever order the driver chooses — run_many absorbs forks in input
  /// order so events() stays a complete, deterministically ordered log.
  void absorb(const FaultInjector& fork);

  // --- context, pushed by the pipeline driver ---
  void begin_target(std::string_view name);
  void begin_stage(PipelineStage stage);

  // --- probes, called from instrumented code ---
  /// Machine run loop: burn this step instead of executing?
  bool should_stall() { return probe(FaultKind::kSchedulerStall); }
  /// Debugger layer: ignore the skip-once flag so a released breakpoint
  /// re-triggers immediately (verifier livelock)?
  bool livelock_breakpoints() { return probe(FaultKind::kBreakpointLivelock); }
  /// Machine observer dispatch: drop this event (truncated stream)?
  bool truncate_events() { return probe(FaultKind::kTruncatedEvents); }
  /// Stage entry: throws InjectedFault when a kStageException plan fires.
  void maybe_throw();

  // --- service-phase probes (owl_served request lifecycle) ---
  // Unlike the pipeline probes above, these name their phase explicitly:
  // service phases interleave per request rather than nesting per target,
  // so there is no driver pushing begin_stage() context around them. The
  // probe runs with the injector's stage temporarily set to `phase` (probe
  // counters are NOT reset — `after` counts probes across the daemon's
  // lifetime, which is what makes "fail the 3rd request's cache write"
  // expressible). Callers serialize access (the server wraps its service
  // injector in a mutex; see serve::ServiceCore).
  /// Throws InjectedFault when a kStageException plan matches `phase`.
  void maybe_throw_at(PipelineStage phase);
  /// True when a kCorruptedData plan matches `phase` (cache read/write).
  bool should_corrupt_at(PipelineStage phase) {
    return probe_at(phase, FaultKind::kCorruptedData);
  }
  /// True when a kSchedulerStall plan matches `phase`; the server maps it
  /// to a bounded hang — the deterministic window the crash-recovery tests
  /// kill -9 into.
  bool should_hang_at(PipelineStage phase) {
    return probe_at(phase, FaultKind::kSchedulerStall);
  }
  /// Generic phase-scoped probe backing the helpers above.
  bool probe_at(PipelineStage phase, FaultKind kind);

  // --- accounting ---
  /// First-fire-per-context log (bounded: one entry per plan per context).
  const std::vector<InjectionEvent>& events() const noexcept {
    return events_;
  }
  /// Did `kind` fire since the last begin_stage()? The pipeline uses this
  /// to attribute non-throwing faults (stalls, truncation) to the stage.
  bool fired_in_stage(FaultKind kind) const noexcept;
  /// Total probe firings (all plans, all contexts).
  std::uint64_t fired_total() const noexcept { return fired_total_; }

 private:
  struct PlanState {
    FaultPlan plan;
    std::uint64_t probes = 0;  ///< matching probes seen in current context
    std::uint64_t fired = 0;   ///< lifetime firings
    bool logged_in_context = false;
  };

  bool probe(FaultKind kind);

  std::vector<PlanState> plans_;
  std::string target_;
  PipelineStage stage_ = PipelineStage::kDriver;
  std::vector<InjectionEvent> events_;
  std::size_t stage_mark_ = 0;  ///< events_ size at last begin_stage
  std::uint64_t fired_total_ = 0;
};

}  // namespace owl::support
