// RepairPlanner — candidate synthesis for confirmed races (DESIGN.md §13).
//
// Given the verified race reports of one pipeline target, the planner
// proposes whole-module repair candidates in preference order:
//
//  1. lock_reuse  — guard every racy access range with a mutex that already
//                   protects the racy variable on some other path (found
//                   via analysis::LockFacts: a well-formed token in the
//                   must-held set of a non-racy access to the same object);
//  2. relocate    — when a racy access sits in the spawning block between
//                   thread_create and thread_join, move it past the last
//                   join: the paired access can no longer happen in
//                   parallel with it;
//  3. lock_insert — guard every racy access range with one fresh mutex
//                   ("__owl_fix"). A single mutex for all ranges by design:
//                   two fresh locks could introduce a lock-order cycle, one
//                   cannot.
//
// The planner is purely static and deliberately optimistic — each candidate
// is only a hypothesis until the engine's three verification gates pass
// (race-freedom, checker differential, output equivalence). All racy sites
// of all confirmed reports are repaired jointly: one candidate patches the
// whole module, yielding one `<example>_fixed.mir` per target.
#pragma once

#include <string>
#include <vector>

#include "analysis/static_info.hpp"
#include "ir/transform.hpp"
#include "race/report.hpp"
#include "repair/report.hpp"

namespace owl::repair {

/// One critical-section guard: [first.index, last_index] of first's block.
struct GuardSpan {
  ir::InstrCoord first;
  std::size_t last_index = 0;
};

/// One relocation: detach `from`, re-insert after `after`.
struct MoveEdit {
  ir::InstrCoord from;
  ir::InstrCoord after;
};

/// A whole-module patch hypothesis. `lock` names an existing global for
/// kLockReuse and the preferred fresh-mutex name for kLockInsert.
struct RepairCandidate {
  Strategy strategy = Strategy::kLockInsert;
  std::string lock;
  std::vector<GuardSpan> guards;
  std::vector<MoveEdit> moves;
};

class RepairPlanner {
 public:
  RepairPlanner(const ir::Module& module,
                const analysis::ModuleStatic& statics)
      : module_(module), statics_(statics) {}

  /// Candidates in preference order; empty when no confirmed report carries
  /// usable instruction sites.
  std::vector<RepairCandidate> plan(
      const std::vector<race::RaceReport>& confirmed) const;

 private:
  const ir::Module& module_;
  const analysis::ModuleStatic& statics_;
};

}  // namespace owl::repair
