// Pipeline-facing mode switch for sync-preserving race prediction
// (DESIGN.md §12). Mirrors race/prescreen_view.hpp: kOff leaves every byte
// of pipeline output untouched; kOn prunes the race verifier's candidate
// set down to predicted-feasible reports (plus replay-confirmed predicted
// races the observed schedules never exhibited); kAudit runs the normal
// exhaustive path and only *checks* the predictor's verdicts against what
// the verifier actually confirmed (advisory predict.audit_violations — a
// verified race the predictor called infeasible is a soundness violation).
#pragma once

#include "support/audit_mode.hpp"

namespace owl::race {

using PredictMode = support::AuditMode;

}  // namespace owl::race
