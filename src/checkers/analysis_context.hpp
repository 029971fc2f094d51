// Shared analysis substrate for the checker suite (DESIGN.md §11).
//
// One AnalysisContext per pipeline target bundles everything a checker may
// consult: the module, the whole-module statics (points-to/escape from
// analysis::ModuleStatic, the shared analysis::LockFacts lockset/discipline
// facts the prescreen also consumes), the static MHP view exported from the
// detector's happens-before model (race::MhpInfo), and a machine factory
// for checkers that confirm candidates by directed replay (deadlock). The
// factory may be empty — checkers then degrade to static-only verdicts.
#pragma once

#include "analysis/static_info.hpp"
#include "interp/machine.hpp"
#include "ir/module.hpp"
#include "race/mhp.hpp"

namespace owl::checkers {

struct AnalysisContext {
  AnalysisContext(const ir::Module& module,
                  const analysis::ModuleStatic& statics,
                  interp::MachineFactory machine_factory);

  const ir::Module& module;
  const analysis::ModuleStatic& statics;
  race::MhpInfo mhp;
  interp::MachineFactory machine_factory;  ///< may be empty (no replay)

  const analysis::PointsTo& points_to() const noexcept {
    return statics.points_to;
  }
  const analysis::LockFacts& lock_facts() const noexcept {
    return statics.lock_facts;
  }

  /// Name of the global variable behind a points-to object id ("" when the
  /// object is not a global).
  std::string object_name(analysis::PointsTo::ObjectId id) const;
};

}  // namespace owl::checkers
