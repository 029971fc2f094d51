#include "ir/verifier.hpp"

#include <unordered_set>

#include "ir/cfg.hpp"
#include "ir/printer.hpp"

namespace owl::ir {
namespace {

class Verifier {
 public:
  explicit Verifier(const Module& module) : module_(&module) {}

  std::vector<Status> run() {
    for (const auto& f : module_->functions()) {
      if (f->has_body()) check_function(*f);
    }
    return std::move(errors_);
  }

 private:
  void fail(const Function& f, const Instruction* instr, std::string what) {
    std::string message = "in @" + f.name();
    if (instr != nullptr) {
      message += " at '" + print_instruction(*instr) + "'";
    }
    message += ": " + what;
    errors_.push_back(verify_error(std::move(message)));
  }

  void check_function(const Function& f) {
    std::unordered_set<const BasicBlock*> own_blocks;
    std::unordered_set<const Value*> own_values;
    for (const auto& arg : f.arguments()) own_values.insert(arg.get());
    for (const auto& bb : f.blocks()) {
      own_blocks.insert(bb.get());
      for (const auto& instr : bb->instructions()) {
        own_values.insert(instr.get());
      }
    }

    const Cfg cfg(f);

    for (const auto& bb : f.blocks()) {
      if (bb->empty()) {
        fail(f, nullptr, "block '" + bb->label() + "' is empty");
        continue;
      }
      // Exactly one terminator, and only in last position.
      for (std::size_t i = 0; i < bb->size(); ++i) {
        const Instruction* instr = bb->instructions()[i].get();
        const bool last = (i + 1 == bb->size());
        if (instr->is_terminator() != last) {
          fail(f, instr,
               last ? "block '" + bb->label() + "' does not end in a terminator"
                    : "terminator in the middle of block '" + bb->label() +
                          "'");
          break;
        }
      }

      bool seen_non_phi = false;
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() == Opcode::kPhi) {
          if (seen_non_phi) {
            fail(f, instr.get(), "phi after non-phi instruction");
          }
          check_phi(f, cfg, *instr, own_values);
        } else {
          seen_non_phi = true;
        }
        check_instruction(f, *instr, own_blocks, own_values);
      }
    }
  }

  void check_phi(const Function& f, const Cfg& cfg, const Instruction& phi,
                 const std::unordered_set<const Value*>& own_values) {
    const auto& preds = cfg.predecessors(phi.parent());
    if (phi.phi_values().empty()) {
      fail(f, &phi, "phi with no incoming edges");
      return;
    }
    for (std::size_t i = 0; i < phi.phi_values().size(); ++i) {
      const BasicBlock* from = phi.phi_blocks()[i];
      bool is_pred = false;
      for (const BasicBlock* p : preds) {
        if (p == from) {
          is_pred = true;
          break;
        }
      }
      if (!is_pred) {
        fail(f, &phi,
             "phi incoming block '" + from->label() + "' is not a predecessor");
      }
      const Value* v = phi.phi_values()[i];
      if (v->is_instruction() || v->kind() == ValueKind::kArgument) {
        if (!own_values.contains(v)) {
          fail(f, &phi, "phi incoming value from another function");
        }
      }
    }
  }

  void check_instruction(const Function& f, const Instruction& instr,
                         const std::unordered_set<const BasicBlock*>& blocks,
                         const std::unordered_set<const Value*>& own_values) {
    for (const Value* op : instr.operands()) {
      if (op == nullptr) {
        fail(f, &instr, "null operand");
        continue;
      }
      if ((op->is_instruction() || op->kind() == ValueKind::kArgument) &&
          !own_values.contains(op)) {
        fail(f, &instr, "operand defined in another function");
      }
    }
    for (const BasicBlock* target : instr.targets()) {
      if (!blocks.contains(target)) {
        fail(f, &instr, "branch target in another function");
      }
    }
    // With the table's arity checked, every operand index the interpreter
    // and the checks below read exists. The message names the opcode only:
    // the printer reads the operands it is missing.
    const int arity = instr.info().arity;
    if (arity != OpInfo::kNone &&
        instr.operand_count() != static_cast<std::size_t>(arity)) {
      fail(f, nullptr,
           "wrong operand count for " +
               std::string(opcode_name(instr.opcode())) + ": expects " +
               std::to_string(arity) + " got " +
               std::to_string(instr.operand_count()));
      return;
    }

    switch (instr.opcode()) {
      case Opcode::kBr:
        if (!instr.operand(0)->type().is_integer()) {
          fail(f, &instr, "br condition must be integer-typed");
        }
        if (instr.targets().size() != 2) {
          fail(f, &instr, "br needs two targets");
        }
        break;
      case Opcode::kJmp:
        if (instr.targets().size() != 1) fail(f, &instr, "jmp needs one target");
        break;
      case Opcode::kCall: {
        const Function* callee = instr.callee();
        if (callee == nullptr) {
          fail(f, &instr, "call without callee");
        } else if (instr.operand_count() != callee->arguments().size()) {
          fail(f, &instr,
               "call arity mismatch: @" + callee->name() + " expects " +
                   std::to_string(callee->arguments().size()) + " got " +
                   std::to_string(instr.operand_count()));
        }
        break;
      }
      case Opcode::kCallPtr:
        if (instr.operand_count() == 0) {
          fail(f, nullptr, "callptr without a target operand");
        }
        break;
      case Opcode::kThreadCreate: {
        const Function* entry = instr.callee();
        if (entry == nullptr) {
          fail(f, &instr, "thread_create without entry function");
        } else if (entry->arguments().size() > 1) {
          fail(f, &instr, "thread entry takes at most one argument");
        }
        break;
      }
      case Opcode::kRet: {
        const bool returns_value = instr.operand_count() == 1;
        if (f.return_type().is_void() && returns_value) {
          fail(f, &instr, "returning a value from a void function");
        }
        if (!f.return_type().is_void() && !returns_value) {
          fail(f, &instr, "missing return value");
        }
        break;
      }
      default:
        break;
    }
    for (unsigned i = 0, bits = instr.info().addresses; bits != 0;
         ++i, bits >>= 1) {
      if ((bits & 1u) != 0) check_pointer_operand(f, instr, i);
    }
  }

  void check_pointer_operand(const Function& f, const Instruction& instr,
                             std::size_t index) {
    const Value* op = instr.operand(index);
    // Arguments may carry pointers through i64-typed parameters in terse
    // hand-written IR; only flag clearly wrong kinds.
    if (op->type().is_void() || op->type().is_i1()) {
      fail(f, &instr, "operand cannot be used as a pointer");
    }
  }

  const Module* module_;
  std::vector<Status> errors_;
};

}  // namespace

Status verify_module(const Module& module) {
  std::vector<Status> errors = Verifier(module).run();
  return errors.empty() ? Status::ok() : errors.front();
}

}  // namespace owl::ir
