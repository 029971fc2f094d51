// Simulated threads: call frames, register files, and blocking states.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
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

/// An activation record. Its registers live in its thread's register
/// stack (Thread::registers).
struct Frame {
  const ir::Function* function = nullptr;
  const ir::BasicBlock* block = nullptr;
  std::size_t index = 0;                     ///< next instruction in block
  const ir::BasicBlock* prev_block = nullptr;  ///< for phi resolution
  const ir::Instruction* call_site = nullptr;  ///< in the caller
  std::uint64_t serial = 0;                  ///< for stack-object lifetime
  ContextId ctx = kNoContext;                ///< interned calling context
  /// Where the frame's registers start in the thread's register stack.
  std::size_t base = 0;

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

/// A simulated thread, held by value in its Machine: copying one copies
/// its frames and registers.
class Thread {
 public:
  Thread(ThreadId id, const ir::Function* entry) : id_(id), entry_(entry) {}

  ThreadId id() const noexcept { return id_; }
  const ir::Function* entry() const noexcept { return entry_; }

  ThreadState state() const noexcept { return state_; }
  bool finished() const noexcept { return state_ == ThreadState::kFinished; }

  const std::vector<Frame>& frames() const noexcept { return frames_; }
  Frame& top() { return frames_.back(); }
  const Frame& top() const { return frames_.back(); }

  /// The registers of `frame`, one of this thread's frames, indexed by
  /// ir::Value::slot(). Valid until the next push_frame.
  Word* registers(const Frame& frame) noexcept {
    return registers_.data() + frame.base;
  }
  const Word* registers(const Frame& frame) const noexcept {
    return registers_.data() + frame.base;
  }

  /// Pushes `frame` with `slots` registers, all 0, so a value whose def
  /// has not executed in this frame reads 0. Returns the pushed frame.
  Frame& push_frame(Frame frame, std::size_t slots);
  /// Pops the top frame and its registers.
  void pop_frame();
  void clear_frames();

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
  // Only the machine changes a thread's state, so it knows when its set of
  // runnable threads can have changed.
  friend class Machine;
  void set_state(ThreadState s) noexcept { state_ = s; }

  ThreadId id_;
  const ir::Function* entry_;
  ThreadState state_ = ThreadState::kRunnable;
  std::vector<Frame> frames_;
  /// Every frame's registers, outermost first: the register stack.
  std::vector<Word> registers_;
};

}  // namespace owl::interp
