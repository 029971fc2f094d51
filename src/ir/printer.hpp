// Textual MiniIR emission.
//
// The textual form serves the role of LLVM's .ll files: tests and examples
// author modules as text, reports quote instructions in it, and the parser
// (ir/parser.hpp) round-trips it. Grammar summary:
//
//   module  ::= "module" ident NL (global | func)*
//   global  ::= "global" "@"ident "[" int "]" ("=" int)?
//   func    ::= "func" "@"ident "(" params ")" "->" type ("external")? "{"
//                 (label ":" NL | instr NL)* "}"
//   instr   ::= ("%"ident "=")? mnemonic operands ("!"file":"line)?
//   operand ::= "%"ident | "@"ident | int | "null" | label
#pragma once

#include <string>
#include <unordered_map>

#include "ir/module.hpp"

namespace owl::ir {

/// Renders a whole module. Instructions without explicit names get
/// deterministic per-function temporaries (%t0, %t1, ...).
std::string print_module(const Module& module);

/// Renders one function in the same format.
std::string print_function(const Function& function);

/// Renders a single instruction (operands by name, no trailing newline).
/// A one-shot NameTable: it names the whole function of `instr`, so a
/// renderer that quotes many instructions keeps one table instead.
std::string print_instruction(const Instruction& instr);

/// The names print_function gives, kept per function for a renderer that
/// quotes many instructions (race reports, vulnerable input hints). The
/// first instruction quoted from a function names that whole function once;
/// later ones reuse the names, so quoting n instructions costs O(n + size of
/// the functions they come from) instead of O(n × function size).
///
/// An operand resolves only through the names of the quoted instruction's
/// own function, as in print_function: a value of another function prints
/// as %name or %v<id>, and so does every operand of a detached instruction.
///
/// A table lives for one render call. It keys on Function addresses, so it
/// must not outlive the module it names, and it is unsynchronized, so each
/// thread renders with its own: create one on the stack and pass it down by
/// reference.
class NameTable {
 public:
  /// `instr` exactly as print_instruction renders it.
  std::string instruction(const Instruction& instr);

 private:
  /// Printable name of every argument and non-void instruction, per
  /// function (the null key holds the empty names of detached instructions).
  std::unordered_map<const Function*,
                     std::unordered_map<const Value*, std::string>>
      functions_;
};

}  // namespace owl::ir
