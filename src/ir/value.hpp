// MiniIR value hierarchy: everything an instruction can reference.
//
// Ownership model (CppCoreGuidelines R.20/R.23): the Module owns globals,
// functions and the constant pool; Functions own arguments and blocks;
// BasicBlocks own instructions. All cross-references (operands, callees,
// branch targets) are non-owning raw pointers whose lifetime is tied to the
// owning Module, which is immutable while analyses run.
#pragma once

#include <cstdint>
#include <string>

#include "ir/type.hpp"

namespace owl::ir {

class Function;

enum class ValueKind : std::uint8_t {
  kConstant,
  kArgument,
  kInstruction,
  kGlobalVariable,
  kFunction,
};

/// Base of the value hierarchy. Values are identified by a module-unique id
/// (stable across printing/parsing round trips is NOT guaranteed; names are).
class Value {
 public:
  Value(ValueKind kind, Type type, std::string name)
      : kind_(kind), type_(type), name_(std::move(name)) {}
  virtual ~Value() = default;

  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  ValueKind kind() const noexcept { return kind_; }
  Type type() const noexcept { return type_; }
  /// Retypes the value: a call takes its callee's return type and a built
  /// phi its caller's, not the opcode table's result type.
  void set_type(Type type) noexcept { type_ = type; }
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::uint64_t id() const noexcept { return id_; }
  void set_id(std::uint64_t id) noexcept { id_ = id; }

  /// Dense number of the value in its owner, given when it is added: an
  /// argument's or instruction's register slot in its function (below
  /// Function::slot_count()), or a global's position in its module. 0 for
  /// constants and functions. The interpreter indexes frames and the
  /// global address table by it.
  std::uint32_t slot() const noexcept { return slot_; }
  void set_slot(std::uint32_t slot) noexcept { slot_ = slot; }

  bool is_constant() const noexcept { return kind_ == ValueKind::kConstant; }
  bool is_instruction() const noexcept {
    return kind_ == ValueKind::kInstruction;
  }

 private:
  // One-byte kind and type leave room for the slot in the padding before
  // the name, so the slot costs no memory per value.
  ValueKind kind_;
  Type type_;
  std::uint32_t slot_ = 0;
  std::string name_;
  std::uint64_t id_ = 0;
};

/// An integer or pointer literal. Uniqued per-module by (type, value).
class Constant final : public Value {
 public:
  Constant(Type type, std::int64_t value)
      : Value(ValueKind::kConstant, type, ""), value_(value) {}

  std::int64_t value() const noexcept { return value_; }

  /// True for the pointer literal 0 — the `null` the SSDB/uselib races store.
  bool is_null_pointer() const noexcept {
    return type().is_ptr() && value_ == 0;
  }

 private:
  std::int64_t value_;
};

/// A formal parameter of a Function.
class Argument final : public Value {
 public:
  Argument(Type type, std::string name, Function* parent, unsigned index)
      : Value(ValueKind::kArgument, type, std::move(name)),
        parent_(parent),
        index_(index) {}

  Function* parent() const noexcept { return parent_; }
  unsigned index() const noexcept { return index_; }

 private:
  Function* parent_;
  unsigned index_;
};

/// A named region of simulated shared memory, sized in 8-byte cells.
/// Globals are where the studied races live (dying, f_op, outcnt, busy, db).
class GlobalVariable final : public Value {
 public:
  GlobalVariable(std::string name, std::uint64_t cell_count,
                 std::int64_t initial_value)
      : Value(ValueKind::kGlobalVariable, Type::ptr(), std::move(name)),
        cell_count_(cell_count),
        initial_value_(initial_value) {}

  /// Number of 8-byte cells this global occupies.
  std::uint64_t cell_count() const noexcept { return cell_count_; }
  /// Every cell starts with this value.
  std::int64_t initial_value() const noexcept { return initial_value_; }

 private:
  std::uint64_t cell_count_;
  std::int64_t initial_value_;
};

}  // namespace owl::ir
