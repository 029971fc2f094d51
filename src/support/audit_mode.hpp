// The off/on/audit switch shared by every optional soundness-sensitive
// layer: the static may-race prescreen (DESIGN.md §9), sync-preserving
// race prediction (§12) and memory-aware value flow (§14).
//
// kOff leaves every output byte-identical to a build without the layer;
// kOn lets the layer change what the pipeline does (prune, add, extend);
// kAudit runs the exhaustive path and counts the layer's soundness
// violations instead (PipelineResult::audit — a nonzero count exits 3).
#pragma once

#include <string_view>

namespace owl::support {

enum class AuditMode {
  kOff,    ///< layer not consulted (default)
  kOn,     ///< layer changes what the pipeline does
  kAudit,  ///< exhaustive path plus soundness cross-check (must be zero)
};

inline std::string_view audit_mode_name(AuditMode mode) noexcept {
  switch (mode) {
    case AuditMode::kOff: return "off";
    case AuditMode::kOn: return "on";
    case AuditMode::kAudit: return "audit";
  }
  return "?";
}

inline bool parse_audit_mode(std::string_view text, AuditMode& out) noexcept {
  if (text == "off") { out = AuditMode::kOff; return true; }
  if (text == "on") { out = AuditMode::kOn; return true; }
  if (text == "audit") { out = AuditMode::kAudit; return true; }
  return false;
}

}  // namespace owl::support
