// Access records — the per-event payload of a race report.
#pragma once

#include <string>

#include "interp/thread.hpp"
#include "ir/instruction.hpp"
#include "ir/printer.hpp"

namespace owl::race {

/// One memory access as captured by a detector: where, by whom, reading or
/// writing what. The call stack is the dynamic information OWL feeds back
/// into static analysis (paper §4.1's "combine static and dynamic effects").
struct AccessRecord {
  interp::ThreadId tid = 0;
  const ir::Instruction* instr = nullptr;
  interp::Address addr = 0;
  interp::Word value = 0;
  bool is_write = false;
  interp::CallStack stack;

  bool is_read() const noexcept { return !is_write; }

  /// "write of 1 by thread 2 at 'store 1, @dying' (libsafe.c:1640)", the
  /// instruction quoted through `names`.
  std::string to_string(ir::NameTable& names) const;
};

}  // namespace owl::race
