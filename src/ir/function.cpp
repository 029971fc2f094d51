#include "ir/function.hpp"

namespace owl::ir {

Argument* Function::add_argument(Type type, std::string name) {
  args_.push_back(std::make_unique<Argument>(
      type, std::move(name), this, static_cast<unsigned>(args_.size())));
  args_.back()->set_slot(take_slot());
  return args_.back().get();
}

BasicBlock* Function::add_block(std::string label) {
  blocks_.push_back(std::make_unique<BasicBlock>(std::move(label), this));
  return blocks_.back().get();
}

BasicBlock* Function::find_block(std::string_view label) const noexcept {
  for (const auto& bb : blocks_) {
    if (bb->label() == label) return bb.get();
  }
  return nullptr;
}

std::size_t Function::instruction_count() const noexcept {
  std::size_t n = 0;
  for (const auto& bb : blocks_) n += bb->size();
  return n;
}

}  // namespace owl::ir
