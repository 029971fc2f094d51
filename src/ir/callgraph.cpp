#include "ir/callgraph.hpp"

namespace owl::ir {

CallGraph::CallGraph(const Module& module) {
  for (const auto& f : module.functions()) {
    callees_.try_emplace(f.get());
    callers_.try_emplace(f.get());
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        Function* target = nullptr;
        if (instr->opcode() == Opcode::kCall ||
            instr->opcode() == Opcode::kThreadCreate) {
          target = instr->callee();
        }
        if (target == nullptr) continue;
        callees_[f.get()].insert(target);
        callers_[target].insert(f.get());
        sites_[target].push_back(instr.get());
      }
    }
  }
}

CallGraph::CallGraph(const Module& module, const IndirectCallMap& indirect)
    : CallGraph(module) {
  for (const auto& f : module.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() != Opcode::kCallPtr) continue;
        auto it = indirect.find(instr.get());
        if (it == indirect.end()) continue;
        for (Function* target : it->second) {
          callees_[f.get()].insert(target);
          callers_[target].insert(f.get());
          sites_[target].push_back(instr.get());
        }
      }
    }
  }
}

const std::unordered_set<Function*>& CallGraph::callees(
    const Function* f) const {
  auto it = callees_.find(f);
  return it != callees_.end() ? it->second : empty_set_;
}

const std::unordered_set<Function*>& CallGraph::callers(
    const Function* f) const {
  auto it = callers_.find(f);
  return it != callers_.end() ? it->second : empty_set_;
}

const std::vector<Instruction*>& CallGraph::call_sites(
    const Function* f) const {
  auto it = sites_.find(f);
  return it != sites_.end() ? it->second : empty_sites_;
}

std::unordered_set<Function*> CallGraph::reachable_from(
    const std::vector<Function*>& roots) const {
  std::unordered_set<Function*> seen;
  std::vector<Function*> work(roots.begin(), roots.end());
  while (!work.empty()) {
    Function* f = work.back();
    work.pop_back();
    if (!seen.insert(f).second) continue;
    for (Function* callee : callees(f)) work.push_back(callee);
  }
  return seen;
}

bool CallGraph::is_recursive(const Function* f) const {
  std::unordered_set<Function*> seen;
  std::vector<Function*> work(callees(f).begin(), callees(f).end());
  while (!work.empty()) {
    Function* g = work.back();
    work.pop_back();
    if (g == f) return true;
    if (!seen.insert(g).second) continue;
    for (Function* callee : callees(g)) work.push_back(callee);
  }
  return false;
}

}  // namespace owl::ir
