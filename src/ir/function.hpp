// MiniIR functions: a name, typed arguments, and an entry-first block list.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.hpp"
#include "ir/value.hpp"

namespace owl::ir {

class Module;

class Function final : public Value {
 public:
  /// `is_internal` mirrors Algorithm 1's f.isInternal(): internal functions
  /// have bodies OWL descends into; external ones are opaque boundaries
  /// (libc and friends in the paper's setting).
  Function(std::string name, Type return_type, Module* parent,
           bool is_internal = true)
      : Value(ValueKind::kFunction, Type::ptr(), std::move(name)),
        return_type_(return_type),
        parent_(parent),
        internal_(is_internal) {}

  Module* parent() const noexcept { return parent_; }
  Type return_type() const noexcept { return return_type_; }

  bool is_internal() const noexcept { return internal_; }
  void set_internal(bool internal) noexcept { internal_ = internal; }

  /// Declares a formal parameter; order of calls defines argument indices.
  Argument* add_argument(Type type, std::string name);
  const std::vector<std::unique_ptr<Argument>>& arguments() const noexcept {
    return args_;
  }
  Argument* argument(std::size_t i) const { return args_.at(i).get(); }

  /// Creates and appends a block; the first created block is the entry.
  BasicBlock* add_block(std::string label);
  const std::vector<std::unique_ptr<BasicBlock>>& blocks() const noexcept {
    return blocks_;
  }
  BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }
  BasicBlock* find_block(std::string_view label) const noexcept;

  bool has_body() const noexcept { return !blocks_.empty(); }

  /// Total instruction count across all blocks (used for LoC-style stats).
  std::size_t instruction_count() const noexcept;

  /// One more than the highest register slot handed out: every argument
  /// and every instruction ever added takes the next slot, and a slot is
  /// never reused (an instruction moved by remove/insert takes a new one).
  std::uint32_t slot_count() const noexcept { return next_slot_; }

 private:
  friend class BasicBlock;  // numbers the instructions it takes
  std::uint32_t take_slot() noexcept { return next_slot_++; }

  Type return_type_;
  Module* parent_;
  bool internal_;
  std::vector<std::unique_ptr<Argument>> args_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
  std::uint32_t next_slot_ = 0;
};

}  // namespace owl::ir
