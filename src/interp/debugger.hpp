// Thread-specific breakpoints — the LLDB substrate (paper §5.2).
//
// "Thread specific" means a hit halts only the hitting thread; the rest of
// the machine keeps running. OWL's dynamic race verifier parks one thread
// at each racing instruction and catches the race "in the racing moment";
// the vulnerability verifier uses the same mechanism to order the racing
// instructions before steering toward the vulnerable site.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/instruction.hpp"
#include "interp/thread.hpp"

namespace owl::interp {

using BreakpointId = std::uint32_t;

struct Breakpoint {
  BreakpointId id = 0;
  const ir::Instruction* instr = nullptr;
  /// If set, only this thread stops here (thread-specific breakpoint).
  std::optional<ThreadId> thread;
  bool enabled = true;
};

class Debugger {
 public:
  /// Arms a breakpoint at `instr`, optionally restricted to one thread.
  BreakpointId add_breakpoint(const ir::Instruction* instr,
                              std::optional<ThreadId> thread = std::nullopt);

  void set_enabled(BreakpointId id, bool enabled);

  /// The machine consults this before executing `instr` on `tid`: the first
  /// enabled breakpoint that stops `tid` at `instr`, or nullptr.
  Breakpoint* match(ThreadId tid, const ir::Instruction* instr);

 private:
  std::vector<Breakpoint> breakpoints_;
  BreakpointId next_id_ = 1;
};

}  // namespace owl::interp
