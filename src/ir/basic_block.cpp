#include "ir/basic_block.hpp"

#include <cassert>

#include "ir/function.hpp"

namespace owl::ir {

Instruction* BasicBlock::append(std::unique_ptr<Instruction> instr) {
  assert(instr != nullptr);
  assert(terminator() == nullptr && "appending past a terminator");
  instr->set_parent(this);
  instr->set_slot(parent_->take_slot());
  instrs_.push_back(std::move(instr));
  return instrs_.back().get();
}

Instruction* BasicBlock::insert(std::size_t index,
                                std::unique_ptr<Instruction> instr) {
  assert(instr != nullptr);
  assert(index <= instrs_.size() && "insert position out of range");
  instr->set_parent(this);
  instr->set_slot(parent_->take_slot());
  const auto it = instrs_.insert(
      instrs_.begin() + static_cast<std::ptrdiff_t>(index), std::move(instr));
  return it->get();
}

std::unique_ptr<Instruction> BasicBlock::remove(std::size_t index) {
  assert(index < instrs_.size() && "remove position out of range");
  std::unique_ptr<Instruction> out = std::move(instrs_[index]);
  instrs_.erase(instrs_.begin() + static_cast<std::ptrdiff_t>(index));
  out->set_parent(nullptr);
  return out;
}

std::size_t BasicBlock::index_of(const Instruction* instr) const {
  for (std::size_t i = 0; i < instrs_.size(); ++i) {
    if (instrs_[i].get() == instr) return i;
  }
  assert(false && "instruction not in this block");
  return instrs_.size();
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  const Instruction* term = terminator();
  if (term == nullptr) return {};
  return term->targets();
}

}  // namespace owl::ir
