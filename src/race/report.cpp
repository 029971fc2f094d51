#include "race/report.hpp"

#include <algorithm>

namespace owl::race {

const AccessRecord* RaceReport::read_side() const noexcept {
  if (first.is_read()) return &first;
  if (second.is_read()) return &second;
  if (supplemental_read.has_value()) return &*supplemental_read;
  return nullptr;
}

const AccessRecord* RaceReport::write_side() const noexcept {
  if (first.is_write) return &first;
  return &second;
}

ReportKey RaceReport::key() const noexcept {
  const std::uint64_t a = first.instr != nullptr ? first.instr->id() : 0;
  const std::uint64_t b = second.instr != nullptr ? second.instr->id() : 0;
  return {std::min(a, b), std::max(a, b)};
}

std::string RaceReport::to_string(ir::NameTable& names) const {
  std::string out = "data race";
  if (!object_name.empty()) out += " on '" + object_name + "'";
  out += " (" + std::to_string(occurrences) + " occurrence(s))\n";
  out += "  " + first.to_string(names) + "\n";
  out += interp::call_stack_to_string(first.stack);
  out += "  " + second.to_string(names) + "\n";
  out += interp::call_stack_to_string(second.stack);
  if (supplemental_read.has_value()) {
    out += "  first subsequent read: " + supplemental_read->to_string(names) +
           "\n";
  }
  if (adhoc_sync) out += "  [classified: adhoc synchronization]\n";
  if (verified) out += "  [verified in the racing moment]\n";
  if (!security_hint.empty()) out += "  hint: " + security_hint + "\n";
  return out;
}

bool report_order(const RaceReport& a, const RaceReport& b) noexcept {
  return a.key() < b.key();
}

}  // namespace owl::race
