#include "sync/adhoc_detector.hpp"

#include <unordered_set>

namespace owl::sync {

const ir::LoopInfo& AdhocSyncDetector::loop_info(
    const ir::Function* function) const {
  auto it = loop_cache_.find(function);
  if (it == loop_cache_.end()) {
    it = loop_cache_
             .emplace(function, std::make_unique<ir::LoopInfo>(*function))
             .first;
  }
  return *it->second;
}

AdhocSyncResult AdhocSyncDetector::classify(
    const race::RaceReport& report) const {
  AdhocSyncResult result;

  const race::AccessRecord* read = report.read_side();
  const race::AccessRecord* write = report.write_side();
  if (read == nullptr || read->instr == nullptr) {
    result.reason = "no racing read in report";
    return result;
  }
  if (write == nullptr || write->instr == nullptr || !write->is_write) {
    result.reason = "no racing write in report";
    return result;
  }
  result.read = read->instr;
  result.write = write->instr;

  const ir::Function* function = read->instr->function();
  if (function == nullptr) {
    result.reason = "read not attached to a function";
    return result;
  }

  // Step 1: the read must sit in a loop.
  const ir::LoopInfo& loops = loop_info(function);
  const ir::Loop* loop = loops.innermost_loop(read->instr->parent());
  if (loop == nullptr) {
    result.reason = "racing read is not inside a loop";
    return result;
  }

  // Step 2: forward intra-procedural data/control dependence from the read.
  // Fixpoint over the loop's instructions: anything computed from a tainted
  // value is tainted.
  std::unordered_set<const ir::Value*> tainted{read->instr};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& bb : function->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (tainted.contains(instr.get())) continue;
        bool hit = false;
        for (const ir::Value* op : instr->operands()) {
          if (tainted.contains(op)) {
            hit = true;
            break;
          }
        }
        if (!hit) {
          for (const ir::Value* v : instr->phi_values()) {
            if (tainted.contains(v)) {
              hit = true;
              break;
            }
          }
        }
        if (hit && tainted.insert(instr.get()).second) changed = true;
      }
    }
  }

  // Step 3: some tainted branch must be able to break out of the loop.
  const ir::Instruction* exit_branch = nullptr;
  for (const auto& bb : function->blocks()) {
    if (!loop->contains(bb.get())) continue;
    const ir::Instruction* term = bb->terminator();
    if (term == nullptr || !term->is_branch()) continue;
    if (!tainted.contains(term)) continue;
    if (loops.can_exit_loop(term)) {
      exit_branch = term;
      break;
    }
  }
  if (exit_branch == nullptr) {
    result.reason = "no flag-controlled branch exits the loop";
    return result;
  }
  result.exit_branch = exit_branch;

  // Step 3.5: the loop must actually be a *busy-wait* ("one thread is busy
  // waiting on a shared variable", §5.1): its body only polls — loads,
  // arithmetic, comparisons, yields and sleeps. A loop that performs side
  // effects (stores, calls, frees, vulnerable operations) is doing real
  // work gated by the flag, which is precisely the shape of the SSDB
  // attack (Fig. 6) and must stay in the report stream.
  for (const ir::BasicBlock* bb : loop->blocks) {
    for (const auto& instr : bb->instructions()) {
      if (instr->info().scalar) continue;
      switch (instr->opcode()) {
        case ir::Opcode::kLoad:
        case ir::Opcode::kGep:
        case ir::Opcode::kBr:
        case ir::Opcode::kJmp:
        case ir::Opcode::kPhi:
        case ir::Opcode::kYield:
        case ir::Opcode::kIoDelay:
        case ir::Opcode::kInput:
          continue;  // pure polling
        default:
          result.reason = "loop body performs work; not a busy-wait";
          return result;
      }
    }
  }

  // Step 4: the racing write must store a constant (the "flag = 1" /
  // "ptr = NULL" idiom).
  if (write->instr->opcode() != ir::Opcode::kStore ||
      write->instr->operand_count() < 1 ||
      !write->instr->operand(0)->is_constant()) {
    result.reason = "racing write does not store a constant";
    return result;
  }

  result.is_adhoc = true;
  result.reason = "busy-wait read in loop, flag-exit branch, constant store";
  return result;
}

}  // namespace owl::sync
