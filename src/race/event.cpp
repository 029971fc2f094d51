#include "race/event.hpp"

namespace owl::race {

std::string AccessRecord::to_string(ir::NameTable& names) const {
  std::string out = is_write ? "write of " : "read of ";
  out += std::to_string(value);
  out += " by thread " + std::to_string(tid);
  if (instr != nullptr) {
    out += " at '" + names.instruction(*instr) + "' (" +
           instr->loc().to_string() + ")";
  }
  return out;
}

}  // namespace owl::race
