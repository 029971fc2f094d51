// Structural verification of MiniIR modules.
//
// Run after construction (builder or parser) and before interpretation or
// analysis; all downstream components assume the invariants checked here.
#pragma once

#include "ir/module.hpp"
#include "support/status.hpp"

namespace owl::ir {

/// Checks the whole module:
///  - every block of every internal function ends in exactly one terminator;
///  - phis appear only at the start of a block and name real predecessors;
///  - branch conditions are boolean-ish (i1 or i64), targets in-function;
///  - call arity matches the callee's declared parameters;
///  - thread entries take at most one argument;
///  - pointer-consuming opcodes get ptr-typed operands;
///  - operands belong to the same function (or are constants/globals).
/// Returns the first violation, or OK.
Status verify_module(const Module& module);

}  // namespace owl::ir
