// MiniIR module: the unit of analysis (one per modelled target program).
// Owns all globals, functions and the uniqued constant pool.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "ir/value.hpp"

namespace owl::ir {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const noexcept { return name_; }

  // --- globals ---
  /// Appends a global; its slot() is its position in globals().
  GlobalVariable* add_global(std::string name, std::uint64_t cell_count = 1,
                             std::int64_t initial_value = 0);
  GlobalVariable* find_global(std::string_view name) const noexcept;
  const std::vector<std::unique_ptr<GlobalVariable>>& globals()
      const noexcept {
    return globals_;
  }

  // --- functions ---
  Function* add_function(std::string name, Type return_type,
                         bool is_internal = true);
  Function* find_function(std::string_view name) const noexcept;
  const std::vector<std::unique_ptr<Function>>& functions() const noexcept {
    return functions_;
  }

  // --- uniqued constants ---
  Constant* get_constant(Type type, std::int64_t value);
  Constant* i64(std::int64_t value) { return get_constant(Type::i64(), value); }
  Constant* null_ptr() { return get_constant(Type::ptr(), 0); }

  /// Assigns a fresh value id. Ids are unique across ALL modules in the
  /// process (not just this one) so race-report keys never collide when
  /// reports from different programs are merged or compared.
  std::uint64_t next_value_id() noexcept;

  /// Total instruction count across all functions.
  std::size_t instruction_count() const noexcept;

 private:
  std::string name_;
  std::vector<std::unique_ptr<GlobalVariable>> globals_;
  std::vector<std::unique_ptr<Function>> functions_;
  std::map<std::pair<TypeKind, std::int64_t>, std::unique_ptr<Constant>>
      constants_;
};

}  // namespace owl::ir
