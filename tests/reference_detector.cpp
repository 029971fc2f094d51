#include "reference_detector.hpp"

namespace owl::race {

AccessRecord ReferenceDetector::make_record(
    const Access& access, const interp::Machine& machine) const {
  AccessRecord rec;
  rec.tid = access.tid;
  rec.instr = access.instr;
  rec.addr = access.addr;
  rec.value = access.value;
  rec.is_write = access.is_write;
  if (const interp::Thread* t = machine.thread(access.tid)) {
    rec.stack = t->call_stack();
  }
  return rec;
}

void ReferenceDetector::on_access(const Access& access,
                                  const interp::Machine& machine) {
  ++counters_.accesses;
  VectorClock& ct = clock(access.tid);
  Shadow& shadow = shadow_[access.addr];

  const bool annotated_release =
      annotations_ != nullptr && annotations_->is_release_store(access.instr);
  const bool annotated_acquire =
      annotations_ != nullptr && annotations_->is_acquire_load(access.instr);

  // Atomics and annotated accesses behave as synchronization: they carry
  // happens-before edges through the address and are never themselves racy.
  if (access.is_atomic || annotated_release || annotated_acquire) {
    VectorClock& sync = sync_clocks_[access.addr];
    if (access.is_atomic || annotated_acquire) {
      ct.join(sync);  // acquire side
    }
    const AccessRecord rec = make_record(access, machine);
    if (access.is_atomic || annotated_release) {
      // Publish the store event, then advance past it.
      if (access.is_write) {
        shadow.write = ShadowAccess{access.tid, ct.get(access.tid), rec};
        shadow.reads.clear();
      }
      sync.join(ct);  // release side
      ct.increment(access.tid);
    } else if (!access.is_write) {
      feed_watchers(rec);
    }
    return;
  }

  // Statically race-free plain access (analysis/prescreen): kOn skips the
  // shadow bookkeeping below entirely. Sound because pruned instructions can
  // only touch never-escaping or consistently-locked objects — disjoint
  // from any address that can race or sit on a watch list (DESIGN.md §9).
  if (prescreen_hit(access.instr, access.addr)) {
    ++counters_.prescreen_pruned;
    if (prescreen_.mode == PrescreenMode::kOn) return;
  }

  const AccessRecord rec = make_record(access, machine);

  if (access.is_write) {
    if (shadow.write.has_value() && shadow.write->tid != access.tid &&
        !VectorClock::epoch_leq(shadow.write->tid, shadow.write->epoch, ct)) {
      record_race(shadow.write->rec, rec, machine);
    }
    for (const ShadowAccess& read : shadow.reads) {
      if (read.tid != access.tid &&
          !VectorClock::epoch_leq(read.tid, read.epoch, ct)) {
        record_race(read.rec, rec, machine);
      }
    }
    shadow.write = ShadowAccess{access.tid, ct.get(access.tid), rec};
    shadow.reads.clear();
    // A write sanitizes the watch list for this address (§6.3).
    if (ski_watch_mode_) watched_.erase(access.addr);
  } else {
    if (shadow.write.has_value() && shadow.write->tid != access.tid &&
        !VectorClock::epoch_leq(shadow.write->tid, shadow.write->epoch, ct)) {
      record_race(shadow.write->rec, rec, machine);
    }
    // Keep at most one read epoch per thread.
    bool replaced = false;
    for (ShadowAccess& read : shadow.reads) {
      if (read.tid == access.tid) {
        read.epoch = ct.get(access.tid);
        read.rec = rec;
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      shadow.reads.push_back(
          ShadowAccess{access.tid, ct.get(access.tid), rec});
    }
    feed_watchers(rec);
  }
}

void ReferenceDetector::on_sync(const Sync& sync, const interp::Machine&) {
  ++counters_.sync_events;
  VectorClock& ct = clock(sync.tid);
  switch (sync.kind) {
    case SyncKind::kLockAcquire:
      ct.join(lock_clocks_[sync.addr]);
      break;
    case SyncKind::kLockRelease:
      lock_clocks_[sync.addr] = ct;
      ct.increment(sync.tid);
      break;
    case SyncKind::kHbRelease:
      sync_clocks_[sync.addr].join(ct);
      ct.increment(sync.tid);
      break;
    case SyncKind::kHbAcquire:
      ct.join(sync_clocks_[sync.addr]);
      break;
    case SyncKind::kThreadCreate: {
      const auto child = static_cast<ThreadId>(sync.addr);
      VectorClock& cc = clock(child);
      cc.join(ct);
      cc.increment(child);
      ct.increment(sync.tid);
      break;
    }
    case SyncKind::kThreadFinish:
      finished_clocks_[sync.tid] = ct;
      break;
    case SyncKind::kThreadJoin: {
      const auto target = static_cast<ThreadId>(sync.addr);
      auto it = finished_clocks_.find(target);
      if (it != finished_clocks_.end()) ct.join(it->second);
      break;
    }
  }
}

}  // namespace owl::race
