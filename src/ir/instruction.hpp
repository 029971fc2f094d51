// MiniIR instruction set.
//
// The opcode inventory covers exactly what OWL's analyses and the studied
// attacks need (DESIGN.md §2): scalar SSA computation, -O0-style memory via
// load/store/gep, structured control flow with phis, direct and indirect
// calls, pthread-like concurrency, TSan-style happens-before annotations,
// a workload input/timing environment, and intrinsics for the paper's five
// vulnerable-site classes (§3.2): memory operations, NULL (function-)pointer
// dereferences, privilege operations, file operations and process forking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/value.hpp"

namespace owl::ir {

class BasicBlock;
class Function;

enum class Opcode {
  // --- scalar arithmetic / logic (result: i64) ---
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kSDiv,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  // --- comparison (result: i1) ---
  kICmp,
  // --- memory (addresses are 8-byte cells in simulated memory) ---
  kAlloca,    ///< stack cells in current frame; imm = cell count; result ptr
  kMalloc,    ///< heap allocation; operand 0 = cell count; result ptr
  kFree,      ///< release heap object; operand 0 = ptr
  kLoad,      ///< operand 0 = ptr; result = cell value
  kStore,     ///< operand 0 = value, operand 1 = ptr; no result
  kGep,       ///< operand 0 = base ptr, operand 1 = cell offset; result ptr
  // --- control flow ---
  kBr,        ///< operand 0 = i1 cond; targets: [then, else]
  kJmp,       ///< targets: [dest]
  kPhi,       ///< incoming (value, block) pairs
  kCall,      ///< direct call; callee() set; operands = actual args
  kCallPtr,   ///< indirect call through operand 0 (function id value);
              ///< remaining operands = args. Vulnerable site: NULL/garbage
              ///< function-pointer dereference (paper Fig. 2 / Fig. 6).
  kRet,       ///< operand 0 = value (optional for void functions)
  // --- concurrency ---
  kLock,          ///< operand 0 = mutex ptr; blocks until acquired
  kUnlock,        ///< operand 0 = mutex ptr
  kThreadCreate,  ///< callee() = entry; operand 0 = arg; result = tid (i64)
  kThreadJoin,    ///< operand 0 = tid
  kAtomicRMWAdd,  ///< operand 0 = ptr, operand 1 = delta; result = old value
  kHbRelease,     ///< operand 0 = sync ptr; TSan "happens-before release"
  kHbAcquire,     ///< operand 0 = sync ptr; TSan "happens-before acquire"
  // --- environment ---
  kInput,    ///< operand 0 = input index; result = workload input value
  kIoDelay,  ///< operand 0 = tick count; models disk/network latency —
             ///< this is the knob attackers tune to widen the vulnerable
             ///< window (paper §3.1 Finding III, msync IO example)
  kYield,    ///< scheduler hint; no semantics beyond a preemption point
  kPrint,    ///< operand 0 = value; debug/trace output
  // --- vulnerable-site intrinsics (§3.2's five explicit types) ---
  kStrCpy,      ///< operands: dst ptr, src ptr — unbounded copy until the
                ///< source's 0 terminator; overflow => SecurityEvent
  kMemCopy,     ///< operands: dst ptr, src ptr, len cells
  kSetUid,      ///< operand 0 = uid; uid 0 without privilege => escalation
  kFileAccess,  ///< operand 0 = path id; TOCTOU-style check
  kFileOpen,    ///< operand 0 = path id; result = fd
  kFileWrite,   ///< operand 0 = fd, operand 1 = payload ptr, operand 2 = len
  kFork,        ///< spawns a (simulated) child process; result = pid
  kEval,        ///< operand 0 = command id; shell-style evaluation
};

/// Number of opcodes; kEval is the last.
inline constexpr std::size_t kOpcodeCount =
    static_cast<std::size_t>(Opcode::kEval) + 1;

/// MiniIR's per-opcode facts, one row per opcode. Every layer reads them
/// here instead of switching on opcodes itself; docs/IR_REFERENCE.md states
/// the memory contract the `read`/`written` columns encode.
struct OpInfo {
  /// An operand index or count that does not exist or is not fixed.
  static constexpr int kNone = -1;

  Opcode op;
  std::string_view name;  ///< textual mnemonic ("add", "strcpy", ...)
  /// Result type. A call takes its callee's return type instead, and a phi
  /// the type its builder caller gives (i64 when parsed).
  Type result;
  /// Fixed operand count, or kNone when it varies. Phi incoming values and
  /// branch targets are not operands.
  int arity;
  unsigned addresses;  ///< bit i set: operand i must hold an address
  /// The operands whose addresses the interpreter reports as read and as
  /// written (Observer::Access), or kNone.
  int read;
  int written;
  bool atomic;  ///< the interpreter reports its access as atomic
  bool scalar;  ///< pure scalar computation: the ten binary ops and icmp
};

const OpInfo& op_info(Opcode op) noexcept;
/// Textual mnemonic of an opcode ("add", "strcpy", ...).
inline std::string_view opcode_name(Opcode op) noexcept {
  return op_info(op).name;
}
/// Inverse of opcode_name; returns false if `text` names no opcode.
bool parse_opcode(std::string_view text, Opcode& out) noexcept;

enum class CmpPredicate { kEq, kNe, kSLt, kSLe, kSGt, kSGe, kULt, kULe, kUGt, kUGe };

std::string_view predicate_name(CmpPredicate pred) noexcept;
bool parse_predicate(std::string_view text, CmpPredicate& out) noexcept;

/// Source position carried on every instruction so race reports and
/// vulnerability hints render like the paper's (e.g. "intercept.c:164").
struct SourceLoc {
  std::string file;  ///< empty means "unknown"
  unsigned line = 0;

  bool valid() const noexcept { return !file.empty(); }
  std::string to_string() const {
    return valid() ? file + ":" + std::to_string(line) : std::string("<?>");
  }
  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

/// One MiniIR instruction. Owned by its BasicBlock.
class Instruction final : public Value {
 public:
  /// A fresh instruction of the table's result type for `op`.
  Instruction(Opcode op, std::string name)
      : Value(ValueKind::kInstruction, op_info(op).result, std::move(name)),
        op_(op) {}

  Opcode opcode() const noexcept { return op_; }
  const OpInfo& info() const noexcept { return op_info(op_); }

  // --- operands (non-owning; owned by the Module/Function) ---
  const std::vector<Value*>& operands() const noexcept { return operands_; }
  Value* operand(std::size_t i) const {
    return operands_.at(i);
  }
  std::size_t operand_count() const noexcept { return operands_.size(); }
  void add_operand(Value* v) { operands_.push_back(v); }
  void set_operand(std::size_t i, Value* v) { operands_.at(i) = v; }

  // --- control-flow targets (kBr: [then, else]; kJmp: [dest]) ---
  const std::vector<BasicBlock*>& targets() const noexcept { return targets_; }
  void add_target(BasicBlock* bb) { targets_.push_back(bb); }

  // --- phi incoming edges, parallel vectors (value_i flows from block_i) ---
  const std::vector<Value*>& phi_values() const noexcept { return phi_values_; }
  const std::vector<BasicBlock*>& phi_blocks() const noexcept {
    return phi_blocks_;
  }
  void add_phi_incoming(Value* value, BasicBlock* block) {
    phi_values_.push_back(value);
    phi_blocks_.push_back(block);
  }
  void set_phi_value(std::size_t i, Value* value) { phi_values_.at(i) = value; }

  // --- direct-call / thread-create callee ---
  Function* callee() const noexcept { return callee_; }
  void set_callee(Function* f) noexcept { callee_ = f; }

  // --- immediates ---
  /// kAlloca: cell count; kICmp: unused (see predicate); free-form otherwise.
  std::int64_t imm() const noexcept { return imm_; }
  void set_imm(std::int64_t v) noexcept { imm_ = v; }

  CmpPredicate predicate() const noexcept { return pred_; }
  void set_predicate(CmpPredicate p) noexcept { pred_ = p; }

  // --- position & debug info ---
  BasicBlock* parent() const noexcept { return parent_; }
  void set_parent(BasicBlock* bb) noexcept { parent_ = bb; }
  /// The Function containing this instruction (via its parent block).
  Function* function() const noexcept;

  const SourceLoc& loc() const noexcept { return loc_; }
  void set_loc(SourceLoc loc) { loc_ = std::move(loc); }

  // --- classification helpers used throughout the analyses ---
  bool is_terminator() const noexcept {
    return op_ == Opcode::kBr || op_ == Opcode::kJmp || op_ == Opcode::kRet;
  }
  bool is_branch() const noexcept { return op_ == Opcode::kBr; }
  bool is_call() const noexcept {
    return op_ == Opcode::kCall || op_ == Opcode::kCallPtr;
  }
  /// The operand holding the address the interpreter reports this
  /// instruction writing (`write`) or reading; nullptr when it reports none.
  const Value* accessed_address(bool write) const noexcept;
  /// True when the interpreter reports a memory access for it.
  bool accesses_memory() const noexcept {
    return info().read != OpInfo::kNone || info().written != OpInfo::kNone;
  }
  /// The one address a plain access (a non-atomic load or store) touches;
  /// nullptr for every other instruction.
  const Value* plain_address() const noexcept;

  /// Pretty one-line rendering for reports; includes name, opcode, loc.
  std::string summary() const;

 private:
  Opcode op_;
  std::vector<Value*> operands_;
  std::vector<BasicBlock*> targets_;
  std::vector<Value*> phi_values_;
  std::vector<BasicBlock*> phi_blocks_;
  Function* callee_ = nullptr;
  std::int64_t imm_ = 0;
  CmpPredicate pred_ = CmpPredicate::kEq;
  BasicBlock* parent_ = nullptr;
  SourceLoc loc_;
};

}  // namespace owl::ir
