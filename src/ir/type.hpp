// MiniIR type system.
//
// MiniIR is OWL's stand-in for LLVM bitcode (see DESIGN.md §2). The analyses
// the paper runs over bitcode — forward data/control-flow propagation,
// adhoc-sync classification, vulnerable-site matching — only distinguish
// "no value", booleans, integers and pointers, so the type lattice is kept
// to exactly those four kinds.
#pragma once

#include <cstdint>
#include <string_view>

namespace owl::ir {

enum class TypeKind : std::uint8_t {
  kVoid,  ///< instruction produces no value (store, br, ret void, ...)
  kI1,    ///< boolean, result of comparisons
  kI64,   ///< 64-bit integer, the universal scalar
  kPtr,   ///< address into the simulated memory
};

/// A trivially copyable type tag. MiniIR has no aggregate types; structs are
/// modelled as byte offsets off a base pointer (like -O0 LLVM GEPs).
class Type {
 public:
  constexpr Type() noexcept : kind_(TypeKind::kVoid) {}
  constexpr explicit Type(TypeKind kind) noexcept : kind_(kind) {}

  static constexpr Type void_type() noexcept { return Type(TypeKind::kVoid); }
  static constexpr Type i1() noexcept { return Type(TypeKind::kI1); }
  static constexpr Type i64() noexcept { return Type(TypeKind::kI64); }
  static constexpr Type ptr() noexcept { return Type(TypeKind::kPtr); }

  constexpr TypeKind kind() const noexcept { return kind_; }
  constexpr bool is_void() const noexcept { return kind_ == TypeKind::kVoid; }
  constexpr bool is_i1() const noexcept { return kind_ == TypeKind::kI1; }
  constexpr bool is_i64() const noexcept { return kind_ == TypeKind::kI64; }
  constexpr bool is_ptr() const noexcept { return kind_ == TypeKind::kPtr; }
  /// Integers and booleans; anything that participates in arithmetic.
  constexpr bool is_integer() const noexcept {
    return kind_ == TypeKind::kI1 || kind_ == TypeKind::kI64;
  }

  /// Textual spelling used by the printer/parser ("void", "i1", ...).
  std::string_view name() const noexcept;

  friend constexpr bool operator==(Type a, Type b) noexcept {
    return a.kind_ == b.kind_;
  }
  friend constexpr bool operator!=(Type a, Type b) noexcept {
    return !(a == b);
  }

 private:
  TypeKind kind_;
};

/// Parses a type spelling; returns false if `text` names no type.
bool parse_type(std::string_view text, Type& out) noexcept;

}  // namespace owl::ir
