#include "ir/transform.hpp"

#include <cassert>

#include "ir/parser.hpp"
#include "ir/printer.hpp"

namespace owl::ir {

InstrCoord coord_of(const Instruction& instr) {
  const BasicBlock* block = instr.parent();
  assert(block != nullptr && "coord_of on a detached instruction");
  InstrCoord coord;
  coord.function = block->parent()->name();
  coord.block = block->label();
  coord.index = block->index_of(&instr);
  return coord;
}

Instruction* find_instr(const Module& module, const InstrCoord& coord) {
  const Function* function = module.find_function(coord.function);
  if (function == nullptr) return nullptr;
  const BasicBlock* block = function->find_block(coord.block);
  if (block == nullptr || coord.index >= block->size()) return nullptr;
  return block->instructions()[coord.index].get();
}

std::unique_ptr<Module> clone_module(const Module& module) {
  auto parsed = parse_module(print_module(module));
  if (!parsed.is_ok()) return nullptr;
  return std::move(parsed).value();
}

GlobalVariable* add_mutex_global(Module& module, const std::string& preferred) {
  std::string name = preferred;
  for (unsigned suffix = 2; module.find_global(name) != nullptr; ++suffix) {
    name = preferred + "_" + std::to_string(suffix);
  }
  return module.add_global(name, /*cell_count=*/1, /*initial_value=*/0);
}

namespace {

/// A fresh void lock/unlock on `mutex`, id'd from the module's counter and
/// without a SourceLoc (the printer then omits the `!loc` suffix).
std::unique_ptr<Instruction> make_lock_op(Module& module, Opcode op,
                                          GlobalVariable* mutex) {
  auto instr = std::make_unique<Instruction>(op, "");
  instr->add_operand(mutex);
  instr->set_id(module.next_value_id());
  return instr;
}

}  // namespace

bool guard_range(Module& module, const InstrCoord& first,
                 std::size_t last_index, const std::string& mutex_name) {
  GlobalVariable* mutex = module.find_global(mutex_name);
  if (mutex == nullptr) return false;
  Function* function = module.find_function(first.function);
  if (function == nullptr) return false;
  BasicBlock* block = function->find_block(first.block);
  if (block == nullptr) return false;
  if (first.index > last_index || last_index >= block->size()) return false;
  if (block->instructions()[last_index]->is_terminator()) return false;
  block->insert(first.index, make_lock_op(module, Opcode::kLock, mutex));
  // The lock insertion shifted everything at/after first.index by one.
  block->insert(last_index + 2, make_lock_op(module, Opcode::kUnlock, mutex));
  return true;
}

bool move_after(Module& module, const InstrCoord& from,
                const InstrCoord& after) {
  Instruction* moved = find_instr(module, from);
  Instruction* anchor = find_instr(module, after);
  if (moved == nullptr || anchor == nullptr || moved == anchor) return false;
  if (moved->is_terminator()) return false;
  BasicBlock* source = moved->parent();
  BasicBlock* dest = anchor->parent();
  std::unique_ptr<Instruction> detached = source->remove(from.index);
  std::size_t position = after.index + 1;
  if (source == dest && from.index < after.index) --position;
  dest->insert(position, std::move(detached));
  return true;
}

}  // namespace owl::ir
