// Structured failure accounting for the resilience layer.
//
// When a pipeline stage exhausts its budget, livelocks, stalls, or throws,
// the run is not aborted: the stage's outcome is recorded as a
// FailureRecord and the target's results are marked *degraded*. Table 2/3
// rows then carry a resilience column instead of the whole evaluation run
// crashing — the property the paper's own five-stage evaluation (Fig. 3
// over ten programs) implicitly depends on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace owl::support {

/// The Fig. 3 pipeline stages, as the resilience layer accounts for them.
/// (core::Stage labels report *snapshots*; this labels *work*.) The kServe*
/// entries are the service-layer request phases of owl_served (DESIGN.md
/// §10) — not analysis stages, but they share this enum so FaultPlans,
/// FailureRecords, and the injection harness cover the daemon's own code
/// paths with the same machinery that covers the pipeline's.
enum class PipelineStage {
  kDetection,         ///< step (1): raw detection runs
  kAnnotation,        ///< step (2): adhoc-sync classification + re-run
  kPredict,           ///< sync-preserving race prediction (DESIGN.md §12)
  kRaceVerification,  ///< step (3): dynamic race verifier
  kVulnAnalysis,      ///< step (4): static vulnerability analysis
  kVulnVerification,  ///< step (5): dynamic vulnerability verifier
  kCheckers,          ///< concurrency checker suite (DESIGN.md §11)
  kRepair,            ///< automated race repair (DESIGN.md §13)
  kDriver,            ///< multi-target driver wrapper (catastrophic catch)
  kServeAdmit,        ///< owl_served: admission control decision
  kServeEnqueue,      ///< owl_served: bounded-queue insertion
  kServeCacheRead,    ///< owl_served: result-cache lookup + integrity check
  kServeCacheWrite,   ///< owl_served: result-cache entry write
  kServeRespond,      ///< owl_served: response write to the client
};

std::string_view pipeline_stage_name(PipelineStage stage) noexcept;

/// Why a stage (or one unit of its work) failed.
enum class FailureCause {
  kException,           ///< the stage threw (detector bug, injected fault)
  kLivelock,            ///< verifier session made no progress (watchdog)
  kWallClockExhausted,  ///< stage wall-clock deadline hit
  kStepBudgetExhausted, ///< stage interpreter-step budget hit
  kSchedulerStall,      ///< schedule made no progress (stall watchdog)
  kTruncatedEvents,     ///< detector saw a truncated event stream
};

std::string_view failure_cause_name(FailureCause cause) noexcept;

/// One degraded-stage record attached to a target's StageCounts.
struct FailureRecord {
  PipelineStage stage = PipelineStage::kDriver;
  FailureCause cause = FailureCause::kException;
  std::string detail;              ///< free-form: what/where, exception text
  std::uint64_t steps_spent = 0;   ///< interpreter steps charged to the stage
  unsigned retries = 0;            ///< retries consumed before giving up

  /// "stage/cause (detail)" for logs and the bench resilience column.
  std::string to_string() const;
};

/// Compact summary for table cells: "ok" when empty, otherwise
/// "degraded(stage:cause[,stage:cause...])".
std::string failure_summary(const std::vector<FailureRecord>& failures);

}  // namespace owl::support
