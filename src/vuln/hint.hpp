// Vulnerable-input-hint rendering (the paper's Fig. 5 output format).
//
// OWL does not generate concrete inputs (the paper delegates that to
// symbolic execution); it prints the corrupted branches and the vulnerable
// site so a developer — or our exploit drivers — can infer which inputs
// steer execution down the vulnerable path.
#pragma once

#include <string>

#include "ir/printer.hpp"
#include "vuln/analyzer.hpp"

namespace owl::vuln {

/// One exploit hint, e.g. for the Libsafe attack:
///   ---- Ctrl Dependent Vulnerability ----
///   br %t5, overflow, do_copy  (intercept.c:164)
///   Vulnerable Site Location: strcpy (intercept.c:165)
/// Branches and chain steps are quoted through `names`.
std::string render_hint(const ExploitReport& exploit, ir::NameTable& names);

}  // namespace owl::vuln
