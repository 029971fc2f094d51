#include "vuln/control_dep.hpp"

namespace owl::vuln {

ControlDependence::ControlDependence(const ir::Function& function) {
  const ir::Cfg cfg(function);
  const ir::PostDominatorTree pdom(cfg);

  // For every branch edge A->S: every block on the post-dominator path from
  // S up to (exclusive) ipdom(A) is control dependent on A.
  for (const auto& bb : function.blocks()) {
    const ir::Instruction* term = bb->terminator();
    if (term == nullptr || !term->is_branch()) continue;
    const ir::BasicBlock* a = bb.get();
    const ir::BasicBlock* stop = pdom.ipdom(a);
    for (const ir::BasicBlock* s : cfg.successors(a)) {
      const ir::BasicBlock* walk = s;
      // Guard against irreducible shapes with a step bound.
      std::size_t guard = function.blocks().size() + 1;
      while (walk != nullptr && walk != stop && guard-- > 0) {
        deps_[walk].insert(a);
        if (walk == a) break;  // self-loop: the branch controls itself
        walk = pdom.ipdom(walk);
      }
    }
  }
}

bool ControlDependence::block_depends(
    const ir::BasicBlock* block, const ir::BasicBlock* branch_block) const {
  auto it = deps_.find(block);
  return it != deps_.end() && it->second.contains(branch_block);
}

bool ControlDependence::depends(const ir::Instruction* instr,
                                const ir::Instruction* branch) const {
  if (instr == nullptr || branch == nullptr || !branch->is_branch()) {
    return false;
  }
  return block_depends(instr->parent(), branch->parent());
}

}  // namespace owl::vuln
