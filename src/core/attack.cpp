#include "core/attack.hpp"

#include "vuln/hint.hpp"

namespace owl::core {

std::string ConcurrencyAttack::to_string(ir::NameTable& names) const {
  std::string out = "=== concurrency attack";
  if (!program.empty()) out += " in " + program;
  out += " ===\n";
  out += race.to_string(names);
  out += vuln::render_hint(exploit, names);
  out += "dynamic verification: ";
  if (confirmed()) {
    out += "site reached, attack realized\n";
    for (const interp::SecurityEvent& event : verification.events) {
      if (event.kind == interp::SecurityEventKind::kDeadlock) continue;
      out += "  " + event.to_string() + "\n";
    }
  } else if (verification.site_reached) {
    out += "site reached, no security event observed\n";
  } else {
    out += "site not reached; diverged branches: " +
           std::to_string(verification.diverged_branches.size()) + "\n";
  }
  return out;
}

}  // namespace owl::core
