#include "race/tsan_detector.hpp"

#include <algorithm>
#include <optional>

#include "interp/memory.hpp"
#include "support/metrics.hpp"

namespace owl::race {

bool TsanDetector::prescreen_hit(const ir::Instruction* instr,
                                 interp::Address addr) const noexcept {
  return prescreen_.active() && addr >= interp::kNullGuard &&
         prescreen_.no_race_instr(instr);
}

VectorClock& TsanDetector::clock(ThreadId tid) {
  if (tid >= clocks_.size()) clocks_.resize(tid + 1);
  return clocks_[tid];
}

AccessRecord TsanDetector::record_from_access(
    const Access& access, const interp::Machine& machine) const {
  AccessRecord rec;
  rec.tid = access.tid;
  rec.instr = access.instr;
  rec.addr = access.addr;
  rec.value = access.value;
  rec.is_write = access.is_write;
  // The context id was stamped while the accessing frame was still at
  // access.instr, so this reproduces Thread::call_stack() exactly.
  rec.stack = machine.contexts().call_stack(access.context, access.instr);
  ++counters_.lazy_materializations;
  return rec;
}

AccessRecord TsanDetector::record_from_cell(
    const ShadowCell& cell, interp::Address addr, bool is_write,
    const interp::Machine& machine) const {
  AccessRecord rec;
  rec.tid = cell.tid;
  rec.instr = cell.instr;
  rec.addr = addr;
  rec.value = cell.value;
  rec.is_write = is_write;
  // Context ids outlive frames, so this is the stack as of the recorded
  // access — not the thread's current one.
  rec.stack = machine.contexts().call_stack(cell.ctx, cell.instr);
  ++counters_.lazy_materializations;
  return rec;
}

void TsanDetector::feed_watchers_lazily(const Access& access,
                                        const interp::Machine& machine) {
  if (watched_.empty()) return;
  if (watched_.find(access.addr) == watched_.end()) return;
  feed_watchers(record_from_access(access, machine));
}

void TsanDetector::on_access(const Access& access,
                             const interp::Machine& machine) {
  ++counters_.accesses;
  const bool annotated_release =
      annotations_ != nullptr && annotations_->is_release_store(access.instr);
  const bool annotated_acquire =
      annotations_ != nullptr && annotations_->is_acquire_load(access.instr);

  if (access.is_atomic || annotated_release || annotated_acquire) {
    VectorClock& ct = clock(access.tid);
    VectorClock& sync = sync_clocks_[access.addr];
    if (access.is_atomic || annotated_acquire) {
      ct.join(sync);  // acquire side
    }
    if (access.is_atomic || annotated_release) {
      if (access.is_write) {
        ShadowSlot& slot = shadow_.slot(access.addr);
        slot.set_write(ShadowCell{access.tid, access.context,
                                  ct.get(access.tid), access.instr,
                                  access.value});
        slot.clear_reads();
      }
      sync.join(ct);  // release side
      ct.increment(access.tid);
    } else if (!access.is_write) {
      feed_watchers_lazily(access, machine);
    }
    return;
  }

  // Statically race-free plain access (analysis/prescreen): kOn skips the
  // shadow bookkeeping below entirely, before the shadow-slot lookup, so
  // provably-local traffic never materializes shadow pages. Sound because
  // pruned instructions can only touch never-escaping or consistently-locked
  // objects — disjoint from any address that can race or sit on a watch
  // list (DESIGN.md §9).
  if (prescreen_hit(access.instr, access.addr)) {
    ++counters_.prescreen_pruned;
    if (prescreen_.mode == PrescreenMode::kOn) return;
  }

  ShadowSlot& slot = shadow_.slot(access.addr);
  VectorClock& ct = clock(access.tid);
  const std::uint64_t own_epoch = ct.get(access.tid);

  if (access.is_write) {
    std::optional<AccessRecord> current;  // materialized at most once
    if (slot.has_write && slot.write.tid != access.tid &&
        !VectorClock::epoch_leq(slot.write.tid, slot.write.epoch, ct)) {
      current = record_from_access(access, machine);
      record_race(record_from_cell(slot.write, access.addr,
                                   /*is_write=*/true, machine),
                  *current, machine);
    }
    slot.for_each_read([&](const ShadowCell& read) {
      if (read.tid != access.tid &&
          !VectorClock::epoch_leq(read.tid, read.epoch, ct)) {
        if (!current.has_value()) {
          current = record_from_access(access, machine);
        }
        record_race(record_from_cell(read, access.addr, /*is_write=*/false,
                                     machine),
                    *current, machine);
      }
    });
    slot.set_write(ShadowCell{access.tid, access.context, own_epoch,
                              access.instr, access.value});
    slot.clear_reads();
    // A write sanitizes the watch list for this address (§6.3).
    if (ski_watch_mode_) watched_.erase(access.addr);
  } else {
    if (slot.has_write && slot.write.tid != access.tid &&
        !VectorClock::epoch_leq(slot.write.tid, slot.write.epoch, ct)) {
      record_race(record_from_cell(slot.write, access.addr,
                                   /*is_write=*/true, machine),
                  record_from_access(access, machine), machine);
    }
    // Keep at most one read epoch per thread (replace in place to keep the
    // insertion-order iteration).
    const ShadowCell cell{access.tid, access.context, own_epoch, access.instr,
                          access.value};
    if (ShadowCell* own = slot.find_read(access.tid); own != nullptr) {
      *own = cell;
    } else {
      slot.add_read(cell);
    }
    feed_watchers_lazily(access, machine);
  }
}

void TsanDetector::on_sync(const Sync& sync, const interp::Machine&) {
  ++counters_.sync_events;
  switch (sync.kind) {
    case SyncKind::kLockAcquire:
      clock(sync.tid).join(lock_clocks_[sync.addr]);
      break;
    case SyncKind::kLockRelease: {
      VectorClock& ct = clock(sync.tid);
      lock_clocks_[sync.addr] = ct;
      ct.increment(sync.tid);
      break;
    }
    case SyncKind::kHbRelease: {
      VectorClock& ct = clock(sync.tid);
      sync_clocks_[sync.addr].join(ct);
      ct.increment(sync.tid);
      break;
    }
    case SyncKind::kHbAcquire:
      clock(sync.tid).join(sync_clocks_[sync.addr]);
      break;
    case SyncKind::kThreadCreate: {
      const auto child = static_cast<ThreadId>(sync.addr);
      // Grow once up front: taking both references before any resize keeps
      // them valid (vector reallocation would invalidate the first).
      clock(std::max(child, sync.tid));
      VectorClock& ct = clocks_[sync.tid];
      VectorClock& cc = clocks_[child];
      cc.join(ct);
      cc.increment(child);
      ct.increment(sync.tid);
      break;
    }
    case SyncKind::kThreadFinish:
      if (sync.tid >= finished_.size()) {
        finished_.resize(sync.tid + 1);
      }
      finished_[sync.tid] = clock(sync.tid);
      break;
    case SyncKind::kThreadJoin: {
      const auto target = static_cast<ThreadId>(sync.addr);
      // Slots a resize created but no finish filled hold empty clocks;
      // joining one is a no-op, as for a thread that never finished.
      if (target < finished_.size()) {
        clock(sync.tid).join(finished_[target]);
      }
      break;
    }
  }
}

void TsanDetector::record_race(const AccessRecord& prior,
                               const AccessRecord& current,
                               const interp::Machine& machine) {
  ++dynamic_races_;
  // Audit mode runs full detection; an access the prescreen would have
  // pruned showing up in a race falsifies the static no-race verdict.
  if (prescreen_.mode == PrescreenMode::kAudit) {
    if (prescreen_hit(prior.instr, prior.addr)) {
      ++counters_.prescreen_audit_violations;
    }
    if (prescreen_hit(current.instr, current.addr)) {
      ++counters_.prescreen_audit_violations;
    }
  }
  RaceReport probe;
  probe.first = prior;
  probe.second = current;
  const auto key = probe.key();

  auto it = index_.find(key);
  if (it != index_.end()) {
    ++reports_[it->second].occurrences;
    return;
  }

  probe.occurrences = 1;
  if (const interp::MemObject* obj =
          machine.memory().find_object(current.addr)) {
    probe.object_name = obj->name;
  }
  const std::size_t idx = reports_.size();
  index_.emplace(key, idx);

  // Write-write races lack a corrupted read for Algorithm 1; watch the
  // address so the first subsequent load can be attached (§6.3). SKI mode
  // watches every racy address and logs all reads until sanitized.
  const bool write_write = prior.is_write && current.is_write;
  if (write_write || ski_watch_mode_) {
    watched_[current.addr].push_back(idx);
  }
  reports_.push_back(std::move(probe));
}

void TsanDetector::feed_watchers(const AccessRecord& read) {
  auto it = watched_.find(read.addr);
  if (it == watched_.end()) return;
  // A pruned read feeding a watched report would have been dropped in kOn
  // mode and changed the report — count that as a violation too.
  if (prescreen_.mode == PrescreenMode::kAudit &&
      prescreen_hit(read.instr, read.addr)) {
    ++counters_.prescreen_audit_violations;
  }
  for (std::size_t idx : it->second) {
    RaceReport& report = reports_[idx];
    if (!report.supplemental_read.has_value()) {
      report.supplemental_read = read;
    }
    if (ski_watch_mode_) {
      report.watched_reads.push_back(read);
    }
  }
  if (!ski_watch_mode_) {
    watched_.erase(it);  // one supplemental read is all TSan mode needs
  }
}

void TsanDetector::flush_metrics() {
  // Substrate accounting is *advisory*: deterministic for one configuration
  // but legitimately different across prescreen modes that CI requires to
  // be report- and snapshot-identical. Only the emitted report count is a
  // behavioral metric.
  support::MetricsRegistry& registry = support::metrics();
  registry.advisory("detector.accesses").inc(counters_.accesses);
  registry.advisory("detector.sync_events").inc(counters_.sync_events);
  registry.advisory("detector.lazy_materializations")
      .inc(counters_.lazy_materializations);
  registry.counter("detector.reports_emitted").inc(reports_.size());
  registry.advisory("detector.shadow_pages").inc(shadow_.pages_allocated());
  registry.advisory("prescreen.pruned_accesses")
      .inc(counters_.prescreen_pruned);
  registry.advisory("prescreen.audit_violations")
      .inc(counters_.prescreen_audit_violations);
  counters_ = SubstrateCounters{};  // flush-once: take_reports may re-run
}

std::vector<RaceReport> TsanDetector::take_reports() {
  flush_metrics();
  // Keys are unique in reports_ (record_race deduplicates on insert), so a
  // plain sort is deterministic.
  std::sort(reports_.begin(), reports_.end(), report_order);
  index_.clear();
  watched_.clear();
  return std::move(reports_);
}

void merge_reports(std::vector<RaceReport>& into,
                   std::vector<RaceReport>&& from) {
  std::unordered_map<ReportKey, std::size_t, ReportKeyHash> index;
  index.reserve(into.size() + from.size());
  for (std::size_t i = 0; i < into.size(); ++i) {
    index.emplace(into[i].key(), i);
  }
  for (RaceReport& report : from) {
    auto it = index.find(report.key());
    if (it == index.end()) {
      index.emplace(report.key(), into.size());
      into.push_back(std::move(report));
      continue;
    }
    RaceReport& existing = into[it->second];
    existing.occurrences += report.occurrences;
    if (!existing.supplemental_read.has_value()) {
      existing.supplemental_read = std::move(report.supplemental_read);
    }
    existing.watched_reads.insert(
        existing.watched_reads.end(),
        std::make_move_iterator(report.watched_reads.begin()),
        std::make_move_iterator(report.watched_reads.end()));
  }
  // Keys are unique after the merge loop, so stable vs unstable sort give
  // the same order; stable_sort documents that merge order is key order.
  std::stable_sort(into.begin(), into.end(), report_order);
}

}  // namespace owl::race
