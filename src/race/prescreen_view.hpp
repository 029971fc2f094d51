// Detector-side view of the static may-race prescreen (analysis/prescreen).
//
// The race layer must not depend on analysis/ (analysis depends on ir/ and
// is consumed by core/), so the pipeline hands detectors this POD view: a
// mode plus a pointer to the prescreen's no-race instruction set. kOn skips
// shadow-memory work for provably race-free accesses; kAudit does all the
// work anyway and counts accesses the prescreen *would* have pruned that
// nevertheless participated in a race (soundness violations — must be zero).
#pragma once

#include <unordered_set>

#include "support/audit_mode.hpp"

namespace owl::ir {
class Instruction;
}  // namespace owl::ir

namespace owl::race {

using PrescreenMode = support::AuditMode;

/// What a detector needs from the prescreen. Default-constructed views are
/// inert (mode off, no set), so existing call sites need no changes.
struct PrescreenView {
  PrescreenMode mode = PrescreenMode::kOff;
  /// Instructions whose plain accesses are statically race-free. Owned by
  /// the pipeline's ModuleStatic; must outlive the detector. May be nullptr
  /// only when mode is kOff.
  const std::unordered_set<const ir::Instruction*>* no_race = nullptr;

  bool active() const noexcept {
    return mode != PrescreenMode::kOff && no_race != nullptr;
  }
  bool no_race_instr(const ir::Instruction* instr) const noexcept {
    return no_race->find(instr) != no_race->end();
  }
};

}  // namespace owl::race
