// Control-dependence analysis (Ferrante–Ottenstein–Warren via post-
// dominators). Algorithm 1's "i is control dependent on cbr" test.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "ir/cfg.hpp"
#include "ir/dominators.hpp"

namespace owl::vuln {

class ControlDependence {
 public:
  explicit ControlDependence(const ir::Function& function);

  /// True iff executing `block` is contingent on the outcome of the branch
  /// terminating `branch_block` (classic CD: block post-dominates one
  /// successor path of the branch but not the branch itself).
  bool block_depends(const ir::BasicBlock* block,
                     const ir::BasicBlock* branch_block) const;

  /// Instruction-level convenience: does `instr` control-depend on `branch`?
  bool depends(const ir::Instruction* instr,
               const ir::Instruction* branch) const;

 private:
  std::unordered_map<const ir::BasicBlock*,
                     std::unordered_set<const ir::BasicBlock*>>
      deps_;  // block -> branch blocks it depends on
};

}  // namespace owl::vuln
