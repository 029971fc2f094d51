#include "interp/thread.hpp"

namespace owl::interp {

std::string StackEntry::to_string() const {
  std::string out = function != nullptr ? function->name() : "<?>";
  out += " (";
  out += instr != nullptr ? instr->loc().to_string() : "<?>";
  out += ")";
  return out;
}

std::string call_stack_to_string(const CallStack& stack) {
  std::string out;
  for (const StackEntry& entry : stack) {
    out += "  ";
    out += entry.to_string();
    out += "\n";
  }
  return out;
}

Frame& Thread::push_frame(Frame frame, std::size_t slots) {
  frame.base = registers_.size();
  registers_.resize(frame.base + slots);  // value-initialised: all 0
  return frames_.emplace_back(frame);
}

void Thread::pop_frame() {
  registers_.resize(frames_.back().base);
  frames_.pop_back();
}

void Thread::clear_frames() {
  frames_.clear();
  registers_.clear();
}

CallStack Thread::call_stack() const {
  CallStack stack;
  stack.reserve(frames_.size());
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    const Frame& frame = frames_[i];
    const bool innermost = (i + 1 == frames_.size());
    // Outer frames report their call site; the innermost frame reports the
    // instruction about to execute.
    const ir::Instruction* instr =
        innermost ? frame.current()
                  : frames_[i + 1].call_site;
    stack.push_back(StackEntry{frame.function, instr});
  }
  return stack;
}

}  // namespace owl::interp
