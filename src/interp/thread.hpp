// Simulated threads: call frames, register files, and blocking states.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.hpp"
#include "interp/memory.hpp"

namespace owl::interp {

using ThreadId = std::uint32_t;

/// Interned calling-context id (see context.hpp). Frames carry one so
/// observers can reconstruct call stacks lazily instead of snapshotting
/// them on every memory access.
using ContextId = std::uint32_t;
inline constexpr ContextId kNoContext = 0;

/// One entry of a call stack, outermost-first. Race reports and Algorithm 1
/// both consume this shape (the paper's Fig. 4).
struct StackEntry {
  const ir::Function* function = nullptr;
  /// The instruction about to execute (innermost frame) or the call site
  /// (outer frames).
  const ir::Instruction* instr = nullptr;

  std::string to_string() const;
};

using CallStack = std::vector<StackEntry>;

/// Renders "func (file:line)" lines, innermost last, like the paper's
/// Libsafe call-stack figure.
std::string call_stack_to_string(const CallStack& stack);

/// An activation record.
struct Frame {
  const ir::Function* function = nullptr;
  const ir::BasicBlock* block = nullptr;
  std::size_t index = 0;                     ///< next instruction in block
  const ir::BasicBlock* prev_block = nullptr;  ///< for phi resolution
  const ir::Instruction* call_site = nullptr;  ///< in the caller
  std::uint64_t serial = 0;                  ///< for stack-object lifetime
  ContextId ctx = kNoContext;                ///< interned calling context
  std::unordered_map<const ir::Value*, Word> regs;

  const ir::Instruction* current() const {
    if (block == nullptr || index >= block->size()) return nullptr;
    return block->instructions()[index].get();
  }
};

enum class ThreadState {
  kRunnable,
  kBlockedOnLock,  ///< waiting for a mutex
  kSleeping,       ///< inside a simulated IO delay
  kWaitingJoin,    ///< joined thread not finished yet
  kSuspended,      ///< halted by a thread-specific breakpoint (§5.2)
  kFinished,
};

class Thread {
 public:
  Thread(ThreadId id, const ir::Function* entry) : id_(id), entry_(entry) {}

  ThreadId id() const noexcept { return id_; }
  const ir::Function* entry() const noexcept { return entry_; }

  ThreadState state() const noexcept { return state_; }
  void set_state(ThreadState s) noexcept { state_ = s; }
  bool finished() const noexcept { return state_ == ThreadState::kFinished; }

  std::vector<Frame>& frames() noexcept { return frames_; }
  const std::vector<Frame>& frames() const noexcept { return frames_; }
  Frame& top() { return frames_.back(); }
  const Frame& top() const { return frames_.back(); }

  /// The instruction this thread will execute next (nullptr if finished).
  const ir::Instruction* next_instruction() const {
    return frames_.empty() ? nullptr : frames_.back().current();
  }

  /// Snapshot of the current call stack, outermost first.
  CallStack call_stack() const;

  /// Interned id of the current calling context (kNoContext when no frame
  /// is active). Combined with the pending instruction it reproduces
  /// call_stack() via ContextTree::call_stack.
  ContextId context() const noexcept {
    return frames_.empty() ? kNoContext : frames_.back().ctx;
  }

  // Blocking bookkeeping (interpreted by the Machine).
  Address blocked_mutex = 0;
  std::uint64_t wake_tick = 0;
  ThreadId join_target = 0;
  /// Set when a debugger resume must not immediately re-trigger the same
  /// breakpoint (the verifier's "temporarily release" rule, §5.2).
  bool skip_breakpoint_once = false;

 private:
  ThreadId id_;
  const ir::Function* entry_;
  ThreadState state_ = ThreadState::kRunnable;
  std::vector<Frame> frames_;
};

}  // namespace owl::interp
