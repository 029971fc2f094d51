// Happens-before (vector-clock) data-race detector — the TSan substrate.
//
// Subscribes to a Machine's memory and synchronization events and flags
// conflicting accesses unordered by happens-before. Reports are deduplicated
// by static instruction pair and carry both call stacks, matching the shape
// OWL consumes (§6.3):
//  - if an AnnotationSet is supplied, instructions annotated by the adhoc-
//    sync stage behave as release-stores/acquire-loads (TSan markups);
//  - for write-write races, the detector watches the address and attaches
//    the first subsequent load as the report's supplemental read — the
//    paper's modification so Algorithm 1 always has a corrupted read to
//    start from;
//  - in SKI watch-list mode (`ski_watch_mode`, §6.3) every subsequent
//    read's call stack is logged until a write sanitizes the address. The
//    pipeline's SKI detection runs this mode under one PCT schedule per
//    run and merges the per-run reports — SKI's systematic kernel-schedule
//    exploration (§3).
//
// The hot path runs on paged shadow memory, dense ThreadId-indexed clock
// tables, and lazy race-candidate capture (call stacks rebuilt from
// interned context ids only when an access actually races) — see
// DESIGN.md §2.1. The original hash-map implementation is the test oracle
// (tests/reference_detector.hpp): a subclass that reuses the protected
// report plumbing below, diffed against this class on the examples and
// the paper workloads.
#pragma once

#include <unordered_map>
#include <vector>

#include "interp/machine.hpp"
#include "race/annotations.hpp"
#include "race/prescreen_view.hpp"
#include "race/report.hpp"
#include "race/shadow_memory.hpp"
#include "race/vector_clock.hpp"

namespace owl::race {

class TsanDetector : public interp::Observer {
 public:
  /// `annotations` may be nullptr (first detection run). `ski_watch_mode`
  /// enables the §6.3 watch-list policy of logging all reads after a race.
  /// `prescreen` defaults to an inert view (mode off); in kOn mode plain
  /// accesses the static prescreen proved race-free skip all shadow work.
  explicit TsanDetector(const AnnotationSet* annotations = nullptr,
                        bool ski_watch_mode = false,
                        PrescreenView prescreen = {})
      : annotations_(annotations), ski_watch_mode_(ski_watch_mode),
        prescreen_(prescreen) {
    index_.reserve(16);
    lock_clocks_.reserve(16);
    sync_clocks_.reserve(16);
  }

  void on_access(const Access& access,
                 const interp::Machine& machine) override;
  void on_sync(const Sync& sync, const interp::Machine& machine) override;

  /// Deduplicated reports in stable (key) order. Also flushes this run's
  /// SubstrateCounters into the global MetricsRegistry (one atomic add per
  /// counter, so the hot path itself stays metric-free); call it once, at
  /// the end of the run.
  std::vector<RaceReport> take_reports();
  const std::vector<RaceReport>& reports() const noexcept { return reports_; }

  /// Total dynamic race manifestations (>= reports().size()).
  std::uint64_t dynamic_race_count() const noexcept { return dynamic_races_; }

  /// Per-run substrate accounting (DESIGN.md §8): plain locals bumped on
  /// the hot path, flushed to the metrics registry by take_reports(). All
  /// values are schedule-deterministic — they depend on the event stream
  /// only, never on wall clock or worker interleaving.
  struct SubstrateCounters {
    std::uint64_t accesses = 0;         ///< on_access events seen
    std::uint64_t sync_events = 0;      ///< on_sync events seen
    std::uint64_t lazy_materializations = 0;  ///< AccessRecords rebuilt
    std::uint64_t prescreen_pruned = 0;  ///< accesses the prescreen covers
    /// Audit mode only: a pruned-eligible access participated in a race or
    /// fed a watched report — a prescreen soundness violation (must be 0).
    std::uint64_t prescreen_audit_violations = 0;
  };
  const SubstrateCounters& substrate_counters() const noexcept {
    return counters_;
  }

 protected:
  // --- report plumbing, shared with the reference oracle in tests/ ---
  void record_race(const AccessRecord& prior, const AccessRecord& current,
                   const interp::Machine& machine);
  void feed_watchers(const AccessRecord& read);
  /// True when the prescreen covers this dynamic access: view active, the
  /// instruction is statically race-free, and the address really lies in
  /// object space (the null page is where corrupted-pointer traffic the
  /// static model cannot see lands, so it is never pruned).
  bool prescreen_hit(const ir::Instruction* instr,
                     interp::Address addr) const noexcept;

  const AnnotationSet* annotations_;
  bool ski_watch_mode_;
  PrescreenView prescreen_;
  /// Addresses whose reports still await a supplemental read / SKI logging.
  std::unordered_map<interp::Address, std::vector<std::size_t>> watched_;
  // mutable: the lazy-capture record builders are const member functions.
  mutable SubstrateCounters counters_;

 private:
  VectorClock& clock(ThreadId tid);
  /// Materializes the full record for the in-flight access (lazy capture:
  /// only called once the access is a race candidate or watch-list food).
  AccessRecord record_from_access(const Access& access,
                                  const interp::Machine& machine) const;
  /// Materializes the record for a prior access from its shadow cell,
  /// rebuilding the as-of-access-time call stack from the interned context.
  AccessRecord record_from_cell(const ShadowCell& cell, interp::Address addr,
                                bool is_write,
                                const interp::Machine& machine) const;
  /// feed_watchers for the in-flight access, materializing its record only
  /// when the address is actually watched.
  void feed_watchers_lazily(const Access& access,
                            const interp::Machine& machine);
  void flush_metrics();

  // Paged shadow, dense ThreadId-indexed clock tables (Machine assigns tids
  // sequentially from 0), reserved hash maps for the address-keyed clocks.
  // An empty clock in finished_ means "never finished" — joining an empty
  // clock is a no-op.
  PagedShadow shadow_;
  std::vector<VectorClock> clocks_;
  std::vector<VectorClock> finished_;
  std::unordered_map<interp::Address, VectorClock> lock_clocks_;
  std::unordered_map<interp::Address, VectorClock> sync_clocks_;

  std::unordered_map<ReportKey, std::size_t, ReportKeyHash> index_;
  std::vector<RaceReport> reports_;
  std::uint64_t dynamic_races_ = 0;
};

/// Merges `from` into `into`, collapsing identical static pairs (summing
/// occurrence counts, keeping the earliest supplemental read, concatenating
/// SKI-watched reads). Used when aggregating multi-schedule explorations.
void merge_reports(std::vector<RaceReport>& into,
                   std::vector<RaceReport>&& from);

}  // namespace owl::race
