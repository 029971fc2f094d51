#include "support/fault_injector.hpp"

#include "support/strings.hpp"

namespace owl::support {

bool is_service_phase(PipelineStage stage) noexcept {
  switch (stage) {
    case PipelineStage::kServeAdmit:
    case PipelineStage::kServeEnqueue:
    case PipelineStage::kServeCacheRead:
    case PipelineStage::kServeCacheWrite:
    case PipelineStage::kServeRespond:
      return true;
    default:
      return false;
  }
}

bool parse_fault_plan(std::string_view text, FaultPlan& plan) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() < 2 || parts.size() > 3) return false;
  if (parts[0] == "detect") {
    plan.stage = PipelineStage::kDetection;
  } else if (parts[0] == "annotate") {
    plan.stage = PipelineStage::kAnnotation;
  } else if (parts[0] == "predict") {
    plan.stage = PipelineStage::kPredict;
  } else if (parts[0] == "race-verify") {
    plan.stage = PipelineStage::kRaceVerification;
  } else if (parts[0] == "vuln-analyze") {
    plan.stage = PipelineStage::kVulnAnalysis;
  } else if (parts[0] == "vuln-verify") {
    plan.stage = PipelineStage::kVulnVerification;
  } else if (parts[0] == "check") {
    plan.stage = PipelineStage::kCheckers;
  } else if (parts[0] == "repair") {
    plan.stage = PipelineStage::kRepair;
  } else if (parts[0] == "admit") {
    plan.stage = PipelineStage::kServeAdmit;
  } else if (parts[0] == "enqueue") {
    plan.stage = PipelineStage::kServeEnqueue;
  } else if (parts[0] == "cache-read") {
    plan.stage = PipelineStage::kServeCacheRead;
  } else if (parts[0] == "cache-write") {
    plan.stage = PipelineStage::kServeCacheWrite;
  } else if (parts[0] == "respond") {
    plan.stage = PipelineStage::kServeRespond;
  } else {
    return false;
  }
  if (parts[1] == "stall") {
    plan.kind = FaultKind::kSchedulerStall;
  } else if (parts[1] == "livelock") {
    plan.kind = FaultKind::kBreakpointLivelock;
  } else if (parts[1] == "throw") {
    plan.kind = FaultKind::kStageException;
  } else if (parts[1] == "truncate") {
    plan.kind = FaultKind::kTruncatedEvents;
  } else if (parts[1] == "corrupt") {
    plan.kind = FaultKind::kCorruptedData;
  } else {
    return false;
  }
  if (parts.size() == 3) {
    std::int64_t after = 0;
    if (!parse_int64(parts[2], after) || after < 0) return false;
    plan.after = static_cast<std::uint64_t>(after);
  }
  return true;
}

FaultInjector FaultInjector::fork() const {
  FaultInjector out;
  for (const PlanState& state : plans_) out.add_plan(state.plan);
  return out;
}

void FaultInjector::absorb(const FaultInjector& fork) {
  events_.insert(events_.end(), fork.events_.begin(), fork.events_.end());
  fired_total_ += fork.fired_total_;
}

void FaultInjector::begin_target(std::string_view name) {
  target_.assign(name);
  for (PlanState& state : plans_) {
    state.probes = 0;
    state.logged_in_context = false;
  }
}

void FaultInjector::begin_stage(PipelineStage stage) {
  stage_ = stage;
  stage_mark_ = events_.size();
  for (PlanState& state : plans_) {
    state.probes = 0;
    state.logged_in_context = false;
  }
}

bool FaultInjector::fired_in_stage(FaultKind kind) const noexcept {
  for (std::size_t i = stage_mark_; i < events_.size(); ++i) {
    if (events_[i].kind == kind) return true;
  }
  return false;
}

bool FaultInjector::probe(FaultKind kind) {
  bool fire = false;
  for (PlanState& state : plans_) {
    const FaultPlan& plan = state.plan;
    if (plan.kind != kind || plan.stage != stage_) continue;
    if (!plan.target.empty() && plan.target != target_) continue;
    const std::uint64_t probe_index = state.probes++;
    if (probe_index < plan.after) continue;
    if (plan.count != 0 && state.fired >= plan.count) continue;
    if (!state.logged_in_context) {
      // First firing in this context: log it (bounded — high-frequency
      // probes like stalls fire millions of times but log once).
      events_.push_back({kind, stage_, target_});
      state.logged_in_context = true;
    }
    ++state.fired;
    ++fired_total_;
    fire = true;
  }
  return fire;
}

bool FaultInjector::probe_at(PipelineStage phase, FaultKind kind) {
  // Swap the phase in for the duration of one probe. Counters are shared
  // with the ambient context on purpose (see the header): a service
  // injector is dedicated to service plans, so nothing else resets them.
  const PipelineStage saved = stage_;
  stage_ = phase;
  const bool fired = probe(kind);
  stage_ = saved;
  return fired;
}

void FaultInjector::maybe_throw_at(PipelineStage phase) {
  if (probe_at(phase, FaultKind::kStageException)) {
    throw InjectedFault(str_format(
        "injected exception in %s",
        std::string(pipeline_stage_name(phase)).c_str()));
  }
}

void FaultInjector::maybe_throw() {
  if (probe(FaultKind::kStageException)) {
    throw InjectedFault(str_format(
        "injected exception in %s on %s",
        std::string(pipeline_stage_name(stage_)).c_str(),
        target_.empty() ? "<unnamed>" : target_.c_str()));
  }
}

}  // namespace owl::support
