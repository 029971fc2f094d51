#include "ir/instruction.hpp"

#include <array>
#include <utility>

#include "ir/basic_block.hpp"
#include "ir/function.hpp"

namespace owl::ir {
namespace {

using enum Opcode;
constexpr int kNo = OpInfo::kNone;
constexpr Type kVoid = Type::void_type();
constexpr Type kI1 = Type::i1();
constexpr Type kI64 = Type::i64();
constexpr Type kPtr = Type::ptr();

// Rows follow Opcode order. `addrs` has bit i set when operand i must hold
// an address; `rd`/`wr` name the operand whose address the interpreter
// reports as read/written (docs/IR_REFERENCE.md, "Memory contract").
// clang-format off
constexpr std::array<OpInfo, kOpcodeCount> kOpTable{{
  // op             mnemonic         result arity addrs rd   wr   atomic scalar
    {kAdd,          "add",           kI64,  2,    0b00, kNo, kNo, false, true},
    {kSub,          "sub",           kI64,  2,    0b00, kNo, kNo, false, true},
    {kMul,          "mul",           kI64,  2,    0b00, kNo, kNo, false, true},
    {kUDiv,         "udiv",          kI64,  2,    0b00, kNo, kNo, false, true},
    {kSDiv,         "sdiv",          kI64,  2,    0b00, kNo, kNo, false, true},
    {kAnd,          "and",           kI64,  2,    0b00, kNo, kNo, false, true},
    {kOr,           "or",            kI64,  2,    0b00, kNo, kNo, false, true},
    {kXor,          "xor",           kI64,  2,    0b00, kNo, kNo, false, true},
    {kShl,          "shl",           kI64,  2,    0b00, kNo, kNo, false, true},
    {kLShr,         "lshr",          kI64,  2,    0b00, kNo, kNo, false, true},
    {kICmp,         "icmp",          kI1,   2,    0b00, kNo, kNo, false, true},
    {kAlloca,       "alloca",        kPtr,  0,    0b00, kNo, kNo, false, false},
    {kMalloc,       "malloc",        kPtr,  1,    0b00, kNo, kNo, false, false},
    {kFree,         "free",          kVoid, 1,    0b01, kNo, kNo, false, false},
    {kLoad,         "load",          kI64,  1,    0b01, 0,   kNo, false, false},
    {kStore,        "store",         kVoid, 2,    0b10, kNo, 1,   false, false},
    {kGep,          "gep",           kPtr,  2,    0b01, kNo, kNo, false, false},
    {kBr,           "br",            kVoid, 1,    0b00, kNo, kNo, false, false},
    {kJmp,          "jmp",           kVoid, 0,    0b00, kNo, kNo, false, false},
    {kPhi,          "phi",           kI64,  0,    0b00, kNo, kNo, false, false},
    {kCall,         "call",          kI64,  kNo,  0b00, kNo, kNo, false, false},
    {kCallPtr,      "callptr",       kI64,  kNo,  0b00, kNo, kNo, false, false},
    {kRet,          "ret",           kVoid, kNo,  0b00, kNo, kNo, false, false},
    {kLock,         "lock",          kVoid, 1,    0b01, kNo, kNo, false, false},
    {kUnlock,       "unlock",        kVoid, 1,    0b01, kNo, kNo, false, false},
    {kThreadCreate, "thread_create", kI64,  1,    0b00, kNo, kNo, false, false},
    {kThreadJoin,   "thread_join",   kVoid, 1,    0b00, kNo, kNo, false, false},
    // No read: the interpreter reports the fetch-add as one atomic write,
    // so runtime evidence never pairs it as a reader.
    {kAtomicRMWAdd, "atomic_add",    kI64,  2,    0b01, kNo, 0,   true,  false},
    {kHbRelease,    "hb_release",    kVoid, 1,    0b01, kNo, kNo, false, false},
    {kHbAcquire,    "hb_acquire",    kVoid, 1,    0b01, kNo, kNo, false, false},
    {kInput,        "input",         kI64,  1,    0b00, kNo, kNo, false, false},
    {kIoDelay,      "io_delay",      kVoid, 1,    0b00, kNo, kNo, false, false},
    {kYield,        "yield",         kVoid, 0,    0b00, kNo, kNo, false, false},
    {kPrint,        "print",         kVoid, 1,    0b00, kNo, kNo, false, false},
    // Bulk copies report one read at the source base and one write at the
    // destination base, not one access per cell.
    {kStrCpy,       "strcpy",        kVoid, 2,    0b11, 1,   0,   false, false},
    {kMemCopy,      "memcpy",        kVoid, 3,    0b11, 1,   0,   false, false},
    {kSetUid,       "setuid",        kVoid, 1,    0b00, kNo, kNo, false, false},
    {kFileAccess,   "file_access",   kI64,  1,    0b00, kNo, kNo, false, false},
    {kFileOpen,     "file_open",     kI64,  1,    0b00, kNo, kNo, false, false},
    {kFileWrite,    "file_write",    kVoid, 3,    0b00, kNo, kNo, false, false},
    {kFork,         "fork",          kI64,  0,    0b00, kNo, kNo, false, false},
    {kEval,         "eval",          kVoid, 1,    0b00, kNo, kNo, false, false},
}};
// clang-format on

constexpr bool rows_in_opcode_order() {
  for (std::size_t i = 0; i < kOpTable.size(); ++i) {
    if (static_cast<std::size_t>(kOpTable[i].op) != i) return false;
  }
  return true;
}
static_assert(rows_in_opcode_order(), "kOpTable rows must follow Opcode");

struct PredName {
  CmpPredicate pred;
  std::string_view name;
};

constexpr std::array kPredNames{
    PredName{CmpPredicate::kEq, "eq"},   PredName{CmpPredicate::kNe, "ne"},
    PredName{CmpPredicate::kSLt, "slt"}, PredName{CmpPredicate::kSLe, "sle"},
    PredName{CmpPredicate::kSGt, "sgt"}, PredName{CmpPredicate::kSGe, "sge"},
    PredName{CmpPredicate::kULt, "ult"}, PredName{CmpPredicate::kULe, "ule"},
    PredName{CmpPredicate::kUGt, "ugt"}, PredName{CmpPredicate::kUGe, "uge"},
};

}  // namespace

const OpInfo& op_info(Opcode op) noexcept {
  return kOpTable[static_cast<std::size_t>(op)];
}

bool parse_opcode(std::string_view text, Opcode& out) noexcept {
  for (const OpInfo& row : kOpTable) {
    if (row.name == text) {
      out = row.op;
      return true;
    }
  }
  return false;
}

std::string_view predicate_name(CmpPredicate pred) noexcept {
  for (const PredName& entry : kPredNames) {
    if (entry.pred == pred) return entry.name;
  }
  return "?";
}

bool parse_predicate(std::string_view text, CmpPredicate& out) noexcept {
  for (const PredName& entry : kPredNames) {
    if (entry.name == text) {
      out = entry.pred;
      return true;
    }
  }
  return false;
}

Function* Instruction::function() const noexcept {
  return parent_ != nullptr ? parent_->parent() : nullptr;
}

const Value* Instruction::accessed_address(bool write) const noexcept {
  const int index = write ? info().written : info().read;
  if (index == OpInfo::kNone ||
      static_cast<std::size_t>(index) >= operands_.size()) {
    return nullptr;
  }
  return operands_[static_cast<std::size_t>(index)];
}

const Value* Instruction::plain_address() const noexcept {
  const OpInfo& row = info();
  const bool reads = row.read != OpInfo::kNone;
  if (row.atomic || reads == (row.written != OpInfo::kNone)) return nullptr;
  return accessed_address(!reads);
}

std::string Instruction::summary() const {
  std::string out;
  if (!name().empty()) {
    out += "%";
    out += name();
    out += " = ";
  }
  out += opcode_name(op_);
  if (op_ == Opcode::kICmp) {
    out += " ";
    out += predicate_name(pred_);
  }
  const Function* f = function();
  if (f != nullptr) {
    out += " in ";
    out += f->name();
  }
  out += " (";
  out += loc_.to_string();
  out += ")";
  return out;
}

}  // namespace owl::ir
