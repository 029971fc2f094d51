#include "support/failure.hpp"

namespace owl::support {

std::string_view pipeline_stage_name(PipelineStage stage) noexcept {
  switch (stage) {
    case PipelineStage::kDetection: return "detection";
    case PipelineStage::kAnnotation: return "annotation";
    case PipelineStage::kPredict: return "predict";
    case PipelineStage::kRaceVerification: return "race-verification";
    case PipelineStage::kVulnAnalysis: return "vuln-analysis";
    case PipelineStage::kVulnVerification: return "vuln-verification";
    case PipelineStage::kCheckers: return "checkers";
    case PipelineStage::kRepair: return "repair";
    case PipelineStage::kDriver: return "driver";
    case PipelineStage::kServeAdmit: return "serve-admit";
    case PipelineStage::kServeEnqueue: return "serve-enqueue";
    case PipelineStage::kServeCacheRead: return "serve-cache-read";
    case PipelineStage::kServeCacheWrite: return "serve-cache-write";
    case PipelineStage::kServeRespond: return "serve-respond";
  }
  return "?";
}

std::string_view failure_cause_name(FailureCause cause) noexcept {
  switch (cause) {
    case FailureCause::kException: return "exception";
    case FailureCause::kLivelock: return "livelock";
    case FailureCause::kWallClockExhausted: return "wall-clock-exhausted";
    case FailureCause::kSchedulerStall: return "scheduler-stall";
    case FailureCause::kTruncatedEvents: return "truncated-events";
  }
  return "?";
}

std::string FailureRecord::to_string() const {
  std::string out(pipeline_stage_name(stage));
  out += "/";
  out += failure_cause_name(cause);
  if (retries > 0) {
    out += " after " + std::to_string(retries) + " retr" +
           (retries == 1 ? "y" : "ies");
  }
  if (!detail.empty()) {
    out += " (" + detail + ")";
  }
  return out;
}

std::string failure_summary(const std::vector<FailureRecord>& failures) {
  if (failures.empty()) return "ok";
  std::string out = "degraded(";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ",";
    out += pipeline_stage_name(failures[i].stage);
    out += ":";
    out += failure_cause_name(failures[i].cause);
  }
  out += ")";
  return out;
}

}  // namespace owl::support
