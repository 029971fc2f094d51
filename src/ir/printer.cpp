#include "ir/printer.hpp"

#include <cassert>
#include <unordered_map>

#include "support/strings.hpp"

namespace owl::ir {
namespace {

/// Printable name of every argument and non-void instruction of one
/// function.
using Names = std::unordered_map<const Value*, std::string>;

/// Assigns printable names: explicit names win, otherwise deterministic
/// per-function temporaries in program order.
Names name_function(const Function& f) {
  Names names;
  int next = 0;
  const auto remember = [&names, &next](const Value* v) {
    names.emplace(v, v->name().empty() ? "t" + std::to_string(next++)
                                       : v->name());
  };
  for (const auto& arg : f.arguments()) remember(arg.get());
  for (const auto& bb : f.blocks()) {
    for (const auto& instr : bb->instructions()) {
      if (!instr->type().is_void()) remember(instr.get());
    }
  }
  return names;
}

std::string ref(const Names& names, const Value* v) {
  assert(v != nullptr);
  switch (v->kind()) {
    case ValueKind::kConstant: {
      const auto* c = static_cast<const Constant*>(v);
      if (c->is_null_pointer()) return "null";
      return std::to_string(c->value());
    }
    case ValueKind::kGlobalVariable:
    case ValueKind::kFunction:
      return "@" + v->name();
    case ValueKind::kArgument:
    case ValueKind::kInstruction: {
      auto it = names.find(v);
      if (it != names.end()) return "%" + it->second;
      // Value from another function (or unnamed void): fall back to id.
      if (!v->name().empty()) return "%" + v->name();
      return "%v" + std::to_string(v->id());
    }
  }
  return "%?";
}

std::string render_operands(const Instruction& instr, const Names& names) {
  std::vector<std::string> parts;
  for (const Value* op : instr.operands()) parts.push_back(ref(names, op));
  return join(parts, ", ");
}

std::string render_instr(const Instruction& instr, const Names& names) {
  std::string out = "  ";
  if (!instr.type().is_void()) {
    out += ref(names, &instr);
    out += " = ";
  }
  out += opcode_name(instr.opcode());

  switch (instr.opcode()) {
    case Opcode::kICmp:
      out += " ";
      out += predicate_name(instr.predicate());
      out += " ";
      out += render_operands(instr, names);
      break;
    case Opcode::kAlloca:
      out += " " + std::to_string(instr.imm());
      break;
    case Opcode::kBr:
      out += " " + ref(names, instr.operand(0));
      out += ", " + instr.targets().at(0)->label();
      out += ", " + instr.targets().at(1)->label();
      break;
    case Opcode::kJmp:
      out += " " + instr.targets().at(0)->label();
      break;
    case Opcode::kPhi: {
      std::vector<std::string> parts;
      for (std::size_t i = 0; i < instr.phi_values().size(); ++i) {
        parts.push_back("[" + ref(names, instr.phi_values()[i]) + ", " +
                        instr.phi_blocks()[i]->label() + "]");
      }
      out += " " + join(parts, ", ");
      break;
    }
    case Opcode::kCall:
      out += " @" + instr.callee()->name() + "(" +
             render_operands(instr, names) + ")";
      break;
    case Opcode::kCallPtr: {
      std::vector<std::string> args;
      for (std::size_t i = 1; i < instr.operand_count(); ++i) {
        args.push_back(ref(names, instr.operand(i)));
      }
      out += " " + ref(names, instr.operand(0)) + "(" + join(args, ", ") + ")";
      break;
    }
    case Opcode::kThreadCreate:
      out += " @" + instr.callee()->name() + ", " +
             ref(names, instr.operand(0));
      break;
    default:
      if (instr.operand_count() > 0) {
        out += " " + render_operands(instr, names);
      }
      break;
  }

  if (instr.loc().valid()) {
    out += "  !" + instr.loc().file + ":" + std::to_string(instr.loc().line);
  }
  return out;
}

std::string render_function(const Function& f) {
  const Names names = name_function(f);

  std::string out = "func @" + f.name() + "(";
  std::vector<std::string> params;
  for (const auto& arg : f.arguments()) {
    params.push_back(std::string(arg->type().name()) + " " +
                     ref(names, arg.get()));
  }
  out += join(params, ", ");
  out += ") -> ";
  out += f.return_type().name();
  if (!f.is_internal()) out += " external";
  if (!f.has_body()) {
    out += "\n";
    return out;
  }
  out += " {\n";
  for (const auto& bb : f.blocks()) {
    out += bb->label() + ":\n";
    for (const auto& instr : bb->instructions()) {
      out += render_instr(*instr, names);
      out += "\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace

std::string print_module(const Module& module) {
  std::string out = "module " + module.name() + "\n\n";
  for (const auto& g : module.globals()) {
    out += "global @" + g->name() + " [" + std::to_string(g->cell_count()) +
           "]";
    if (g->initial_value() != 0) {
      out += " = " + std::to_string(g->initial_value());
    }
    out += "\n";
  }
  if (!module.globals().empty()) out += "\n";
  for (const auto& f : module.functions()) {
    out += render_function(*f);
    out += "\n";
  }
  return out;
}

std::string print_function(const Function& function) {
  return render_function(function);
}

std::string print_instruction(const Instruction& instr) {
  return NameTable().instruction(instr);
}

std::string NameTable::instruction(const Instruction& instr) {
  const Function* f = instr.function();
  const auto [it, inserted] = functions_.try_emplace(f);
  if (inserted && f != nullptr) it->second = name_function(*f);
  // Strip the block indentation for standalone quoting in reports.
  return std::string(trim(render_instr(instr, it->second)));
}

}  // namespace owl::ir
