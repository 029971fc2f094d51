#include "race/atomicity_detector.hpp"

#include <algorithm>
#include <utility>

namespace owl::race {

std::string_view atomicity_pattern_name(AtomicityPattern pattern) noexcept {
  switch (pattern) {
    case AtomicityPattern::kRWR: return "read-write-read";
    case AtomicityPattern::kWWR: return "write-write-read";
    case AtomicityPattern::kWRW: return "write-read-write";
    case AtomicityPattern::kRWW: return "read-write-write";
  }
  return "?";
}

std::array<std::uint64_t, 3> AtomicityReport::key() const noexcept {
  return {first_local.instr != nullptr ? first_local.instr->id() : 0,
          remote.instr != nullptr ? remote.instr->id() : 0,
          second_local.instr != nullptr ? second_local.instr->id() : 0};
}

const AccessRecord* AtomicityReport::corrupted_read() const noexcept {
  switch (pattern) {
    case AtomicityPattern::kRWR:
    case AtomicityPattern::kRWW:
      return &first_local;  // the stale read the local thread acted on
    case AtomicityPattern::kWWR:
      return &second_local;  // the read that lost the local write
    case AtomicityPattern::kWRW:
      return &remote;  // the remote read that saw the intermediate state
  }
  return nullptr;
}

std::pair<std::uint64_t, std::uint64_t> AtomicityReport::race_key()
    const noexcept {
  // Mirrors RaceReport::key() over to_race_report()'s (first = remote,
  // second = second_local) pair.
  const std::uint64_t a = remote.instr != nullptr ? remote.instr->id() : 0;
  const std::uint64_t b =
      second_local.instr != nullptr ? second_local.instr->id() : 0;
  return {std::min(a, b), std::max(a, b)};
}

RaceReport AtomicityReport::to_race_report() const {
  RaceReport report;
  report.kind = ReportKind::kAtomicityViolation;
  report.first = remote;
  report.second = second_local;
  report.object_name = object_name;
  report.occurrences = occurrences;
  if (const AccessRecord* read = corrupted_read();
      read != nullptr && read->is_read()) {
    report.supplemental_read = *read;
  }
  report.security_hint =
      std::string("unserializable interleaving: ") +
      std::string(atomicity_pattern_name(pattern));
  return report;
}

bool AtomicityDetector::unserializable(bool l1_write, bool remote_write,
                                       bool l2_write,
                                       AtomicityPattern& out) noexcept {
  if (!l1_write && remote_write && !l2_write) {
    out = AtomicityPattern::kRWR;
    return true;
  }
  if (l1_write && remote_write && !l2_write) {
    out = AtomicityPattern::kWWR;
    return true;
  }
  if (l1_write && !remote_write && l2_write) {
    out = AtomicityPattern::kWRW;
    return true;
  }
  if (!l1_write && remote_write && l2_write) {
    out = AtomicityPattern::kRWW;
    return true;
  }
  return false;
}

void AtomicityDetector::on_access(const Access& access,
                                  const interp::Machine& machine) {
  if (access.is_atomic) return;

  AccessRecord rec;
  rec.tid = access.tid;
  rec.instr = access.instr;
  rec.addr = access.addr;
  rec.value = access.value;
  rec.is_write = access.is_write;
  if (const interp::Thread* t = machine.thread(access.tid)) {
    rec.stack = t->call_stack();
  }

  // Record this access as "remote" for every other thread with a pending
  // local access at this address.
  for (auto& [key, state] : pending_) {
    if (key.first != access.addr || key.second == access.tid) continue;
    if (state.have_local && !state.have_remote) {
      state.have_remote = true;
      state.first_remote = rec;
    }
  }

  LocalState& mine = pending_[{access.addr, access.tid}];
  if (mine.have_local && mine.have_remote) {
    AtomicityPattern pattern;
    if (unserializable(mine.local.is_write, mine.first_remote.is_write,
                       access.is_write, pattern)) {
      AtomicityReport probe;
      probe.first_local = mine.local;
      probe.remote = mine.first_remote;
      probe.second_local = rec;
      probe.pattern = pattern;
      const auto key = probe.key();
      auto it = index_.find(key);
      if (it != index_.end()) {
        ++reports_[it->second].occurrences;
      } else {
        if (const interp::MemObject* obj =
                machine.memory().find_object(access.addr)) {
          probe.object_name = obj->name;
        }
        index_.emplace(key, reports_.size());
        reports_.push_back(std::move(probe));
      }
    }
  }

  // This access starts the next local window.
  mine.have_local = true;
  mine.local = rec;
  mine.have_remote = false;
}

void AtomicityDetector::on_sync(const Sync& sync, const interp::Machine&) {
  // Lock releases end the thread's atomic intent for the region it
  // protected: accesses in different critical sections of the same thread
  // are not expected to be atomic together ONLY if the program re-reads.
  // CTrigger-style detectors still flag check-then-act across sections, so
  // we deliberately keep pending windows across lock boundaries. Thread
  // exit does clear them.
  if (sync.kind == SyncKind::kThreadFinish) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->first.second == sync.tid) {
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

std::vector<AtomicityReport> AtomicityDetector::take_reports() {
  std::sort(reports_.begin(), reports_.end(),
            [](const AtomicityReport& a, const AtomicityReport& b) {
              return a.key() < b.key();
            });
  index_.clear();
  return std::move(reports_);
}

}  // namespace owl::race
