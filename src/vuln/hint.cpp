#include "vuln/hint.hpp"

namespace owl::vuln {

std::string render_hint(const ExploitReport& exploit, ir::NameTable& names) {
  std::string out;
  out += exploit.dep == DepKind::kControl
             ? "---- Ctrl Dependent Vulnerability ----\n"
             : "---- Data Dependent Vulnerability ----\n";
  out += "type: ";
  out += site_type_name(exploit.type);
  out += "\n";
  for (const ir::Instruction* br : exploit.branches) {
    out += "  branch: " + names.instruction(*br) + "  (" +
           br->loc().to_string() + ")\n";
  }
  if (!exploit.propagation.empty()) {
    out += "  propagation chain:\n";
    for (const ir::Instruction* step : exploit.propagation) {
      out += "    " + names.instruction(*step) + "  (" +
             step->loc().to_string() + ")\n";
    }
  }
  out += "Vulnerable Site Location: ";
  if (exploit.site != nullptr) {
    out += std::string(ir::opcode_name(exploit.site->opcode())) + " in " +
           (exploit.function != nullptr ? exploit.function->name() : "<?>") +
           " (" + exploit.site->loc().to_string() + ")";
  }
  out += "\n";
  return out;
}

}  // namespace owl::vuln
