#include "interp/debugger.hpp"

namespace owl::interp {

BreakpointId Debugger::add_breakpoint(const ir::Instruction* instr,
                                      std::optional<ThreadId> thread) {
  Breakpoint bp;
  bp.id = next_id_++;
  bp.instr = instr;
  bp.thread = thread;
  breakpoints_.push_back(bp);
  return bp.id;
}

void Debugger::set_enabled(BreakpointId id, bool enabled) {
  for (Breakpoint& bp : breakpoints_) {
    if (bp.id == id) bp.enabled = enabled;
  }
}

Breakpoint* Debugger::match(ThreadId tid, const ir::Instruction* instr) {
  for (Breakpoint& bp : breakpoints_) {
    if (!bp.enabled || bp.instr != instr) continue;
    if (bp.thread.has_value() && *bp.thread != tid) continue;
    return &bp;
  }
  return nullptr;
}

}  // namespace owl::interp
