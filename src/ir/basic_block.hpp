// MiniIR basic blocks: straight-line instruction sequences ending in a
// terminator (br / jmp / ret), owned by a Function.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.hpp"

namespace owl::ir {

class Function;

class BasicBlock {
 public:
  BasicBlock(std::string label, Function* parent)
      : label_(std::move(label)), parent_(parent) {}

  BasicBlock(const BasicBlock&) = delete;
  BasicBlock& operator=(const BasicBlock&) = delete;

  const std::string& label() const noexcept { return label_; }
  Function* parent() const noexcept { return parent_; }

  /// Appends an instruction, taking ownership and giving it the parent
  /// function's next register slot; returns the raw pointer for wiring
  /// operands.
  Instruction* append(std::unique_ptr<Instruction> instr);

  /// Inserts an instruction before position `index` (so `index == size()`
  /// appends), taking ownership and giving it a new slot. The transform
  /// layer (ir/transform.hpp) uses this to splice guard locks around
  /// existing accesses; callers are responsible for not inserting past the
  /// terminator.
  Instruction* insert(std::size_t index, std::unique_ptr<Instruction> instr);

  /// Detaches and returns the instruction at `index`. The instruction keeps
  /// its operands but loses its parent; the caller re-inserts or drops it.
  std::unique_ptr<Instruction> remove(std::size_t index);

  const std::vector<std::unique_ptr<Instruction>>& instructions()
      const noexcept {
    return instrs_;
  }
  bool empty() const noexcept { return instrs_.empty(); }
  std::size_t size() const noexcept { return instrs_.size(); }
  Instruction* front() const { return instrs_.front().get(); }
  Instruction* back() const { return instrs_.back().get(); }

  /// The block's terminator, or nullptr if the block is still open.
  Instruction* terminator() const noexcept {
    return (!instrs_.empty() && instrs_.back()->is_terminator())
               ? instrs_.back().get()
               : nullptr;
  }

  /// Position of `instr` within this block; asserts if absent.
  std::size_t index_of(const Instruction* instr) const;

  /// Successor blocks according to the terminator (empty for ret / open).
  std::vector<BasicBlock*> successors() const;

 private:
  std::string label_;
  Function* parent_;
  std::vector<std::unique_ptr<Instruction>> instrs_;
};

}  // namespace owl::ir
