#include "vuln/sites.hpp"

namespace owl::vuln {

std::string_view site_type_name(SiteType type) noexcept {
  switch (type) {
    case SiteType::kMemoryOp: return "memory-operation";
    case SiteType::kNullPtrDeref: return "null-pointer-dereference";
    case SiteType::kNullFuncPtrDeref: return "null-function-pointer-deref";
    case SiteType::kPrivilegeOp: return "privilege-operation";
    case SiteType::kFileOp: return "file-operation";
    case SiteType::kProcessFork: return "process-forking";
    case SiteType::kPointerAssign: return "pointer-assignment";
  }
  return "?";
}

std::optional<SiteType> classify_site(const ir::Instruction& instr) noexcept {
  switch (instr.opcode()) {
    case ir::Opcode::kStrCpy:
    case ir::Opcode::kMemCopy:
    case ir::Opcode::kFree:  // double frees are memory-operation attacks
      return SiteType::kMemoryOp;
    case ir::Opcode::kCallPtr:
      return SiteType::kNullFuncPtrDeref;
    case ir::Opcode::kSetUid:
      return SiteType::kPrivilegeOp;
    case ir::Opcode::kFileAccess:
    case ir::Opcode::kFileOpen:
    case ir::Opcode::kFileWrite:
      return SiteType::kFileOp;
    case ir::Opcode::kFork:
    case ir::Opcode::kEval:
      return SiteType::kProcessFork;
    case ir::Opcode::kStore:
      // Pointer assignments redirect later dereferences; scalar stores are
      // too common to report.
      if (instr.operand_count() > 0 && instr.operand(0)->type().is_ptr()) {
        return SiteType::kPointerAssign;
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

std::size_t pointer_operand_index(const ir::Instruction& instr) noexcept {
  switch (instr.opcode()) {
    case ir::Opcode::kLoad:
    case ir::Opcode::kCallPtr:
      return 0;
    case ir::Opcode::kStore:
      return 1;
    default:
      return SIZE_MAX;
  }
}

std::optional<SiteType> classify_pointer_deref(
    const ir::Instruction& instr, bool pointer_operand_corrupted) noexcept {
  if (!pointer_operand_corrupted) return std::nullopt;
  switch (instr.opcode()) {
    case ir::Opcode::kLoad:
    case ir::Opcode::kStore:
      return SiteType::kNullPtrDeref;
    default:
      return std::nullopt;
  }
}

}  // namespace owl::vuln
