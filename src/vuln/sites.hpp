// The five explicit vulnerable-site types (paper §3.2).
//
// "Although the consequences of concurrency attacks are miscellaneous,
// these consequences are triggered by five explicit types of vulnerable
// sites": memory operations (strcpy), NULL pointer dereferences, privilege
// operations (setuid), file operations (access/open) and process-forking
// operations (eval/fork). The types are independent, so adding more is a
// one-line change here.
#pragma once

#include <optional>
#include <string_view>

#include "ir/instruction.hpp"

namespace owl::vuln {

enum class SiteType {
  kMemoryOp,         ///< strcpy/memcpy-style unchecked copies
  kNullPtrDeref,     ///< data load/store through a corrupted pointer
  kNullFuncPtrDeref, ///< indirect call through a corrupted function pointer
  kPrivilegeOp,      ///< setuid and friends
  kFileOp,           ///< access()/open()/write() on files
  kProcessFork,      ///< fork()/eval() launching attacker-visible work
  kPointerAssign,    ///< a pointer-valued store — the Apache-46215 balancer
                     ///< "mycandidate = worker" site (paper §8.4 reports a
                     ///< pointer assignment control-dependent on the
                     ///< corrupted branch)
};

std::string_view site_type_name(SiteType type) noexcept;

/// Context-free classification: instructions that are vulnerable sites by
/// opcode alone (reachable under corrupted *control* flow is enough, like
/// the SSDB db->Write pointer call at Fig. 6 line 347).
std::optional<SiteType> classify_site(const ir::Instruction& instr) noexcept;

/// Context-sensitive classification: loads/stores become NULL-pointer-deref
/// sites when their *pointer operand* is corrupted (pure control dependence
/// on a plain load would flag every memory access, which is noise).
std::optional<SiteType> classify_pointer_deref(
    const ir::Instruction& instr, bool pointer_operand_corrupted) noexcept;

/// Index of the pointer operand for deref classification (load: 0,
/// store: 1, callptr: 0); SIZE_MAX when not a dereference.
std::size_t pointer_operand_index(const ir::Instruction& instr) noexcept;

}  // namespace owl::vuln
