// Race reports — the currency flowing through the OWL pipeline.
//
// A report is keyed by its *static* instruction pair, so repeated dynamic
// manifestations of the same race collapse into one report with a hit
// count; this matches how TSan/SKI reports are counted in the paper's
// Tables 1 and 3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "race/event.hpp"

namespace owl::race {

/// What kind of concurrency bug a report describes. Atomicity violations
/// flow through the same pipeline but are dynamically verified by
/// reproduction (the accesses may be individually lock-protected, so they
/// can never be caught simultaneously "in the racing moment").
enum class ReportKind { kDataRace, kAtomicityViolation };

/// Static dedup key: (min instruction id, max instruction id).
using ReportKey = std::pair<std::uint64_t, std::uint64_t>;

/// Hash for ReportKey. Report indexes are flat hashes that are only looked
/// up, never iterated, so output order never depends on it.
struct ReportKeyHash {
  std::size_t operator()(const ReportKey& key) const noexcept {
    std::uint64_t h = key.first * 0x9E3779B97F4A7C15ull;
    h ^= key.second + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

struct RaceReport {
  ReportKind kind = ReportKind::kDataRace;
  AccessRecord first;   ///< the access observed earlier
  AccessRecord second;  ///< the conflicting access

  std::string object_name;       ///< racy global/heap object, if named
  std::uint64_t occurrences = 1; ///< dynamic manifestations of this pair

  /// For write-write races the paper modified the detectors to also log
  /// "the first load instruction" reading the corrupted value (§6.3); that
  /// read is what Algorithm 1 starts from.
  std::optional<AccessRecord> supplemental_read;

  /// SKI watch-list mode (§6.3): call stacks of every read of the corrupted
  /// address until a write sanitized it.
  std::vector<AccessRecord> watched_reads;

  /// Filled in by pipeline stages.
  bool adhoc_sync = false;       ///< §5.1 classified the pair as adhoc sync
  bool predicted = false;        ///< synthesized by the §12 SP predictor —
                                 ///< dropped unless replay confirms it
  bool verified = false;         ///< §5.2 reproduced the racing moment
  std::string security_hint;     ///< §5.2 value/type/NULL-ness hints

  /// The access Algorithm 1 should start from: a racing read if one exists,
  /// else the supplemental read, else nullptr (pure write-write pair).
  const AccessRecord* read_side() const noexcept;
  /// The racing write (either side), preferring the one opposite read_side.
  const AccessRecord* write_side() const noexcept;

  /// Static dedup key: unordered pair of instruction ids.
  ReportKey key() const noexcept;

  /// Multi-line human-readable rendering with both call stacks.
  std::string to_string(ir::NameTable& names) const;
};

/// Canonical ordering for stable output: by key.
bool report_order(const RaceReport& a, const RaceReport& b) noexcept;

}  // namespace owl::race
