// Atomicity-violation detection (AVIO/CTrigger-style).
//
// The paper (§8.3) points out that races are not the only concurrency bugs
// that feed attacks: "Atomicity violations can be detected by other
// detectors (e.g., CTrigger). By integrating these detectors, OWL's
// analysis and verifier components can detect more concurrency attacks."
// This is that integration: a detector for *unserializable interleavings*
// — a remote access sandwiched between two accesses of the same thread to
// the same location such that no serial order explains the outcome. The
// four unserializable patterns (AVIO):
//
//     local  remote  local      broken expectation
//      R       W       R        two reads expected to agree
//      W       W       R        read expected to see own write
//      W       R       W        intermediate state leaked
//      R       W       W        write computed from a stale read
//
// Crucially this is NOT happens-before racing: each access may be
// individually lock-protected (so TSan stays silent) while the *triple* is
// still unserializable — the classic check-then-act bug. Reports convert
// into the pipeline's RaceReport currency (the stale local read is the
// corrupted read Algorithm 1 starts from), so annotation, verification and
// vulnerability analysis run unchanged on top.
#pragma once

#include <array>
#include <map>
#include <utility>
#include <vector>

#include "interp/machine.hpp"
#include "race/report.hpp"

namespace owl::race {

enum class AtomicityPattern { kRWR, kWWR, kWRW, kRWW };

std::string_view atomicity_pattern_name(AtomicityPattern pattern) noexcept;

struct AtomicityReport {
  AccessRecord first_local;
  AccessRecord remote;
  AccessRecord second_local;
  AtomicityPattern pattern = AtomicityPattern::kRWR;
  std::string object_name;
  std::uint64_t occurrences = 1;

  /// Static dedup key over the instruction triple.
  std::array<std::uint64_t, 3> key() const noexcept;

  /// The key to_race_report().key() would produce, without materializing
  /// the full RaceReport (and copying three call stacks). The race
  /// verifier's replay loop compares candidates by this.
  std::pair<std::uint64_t, std::uint64_t> race_key() const noexcept;

  /// The local read whose value the remote write invalidated — what the
  /// vulnerability analyzer treats as the corrupted read. For the kWRW
  /// pattern (no stale local read) this is the remote read.
  const AccessRecord* corrupted_read() const noexcept;

  /// Converts into the pipeline's report currency: first = remote access,
  /// second = second local access, supplemental read = corrupted read.
  RaceReport to_race_report() const;
};

class AtomicityDetector : public interp::Observer {
 public:
  AtomicityDetector() = default;

  void on_access(const Access& access,
                 const interp::Machine& machine) override;
  void on_sync(const Sync& sync, const interp::Machine& machine) override;

  std::vector<AtomicityReport> take_reports();
  const std::vector<AtomicityReport>& reports() const noexcept {
    return reports_;
  }

 private:
  struct LocalState {
    bool have_local = false;
    AccessRecord local;
    bool have_remote = false;
    AccessRecord first_remote;
  };

  static bool unserializable(bool l1_write, bool remote_write,
                             bool l2_write, AtomicityPattern& out) noexcept;

  // (addr, tid) -> pending local access + first intervening remote access.
  std::map<std::pair<interp::Address, interp::ThreadId>, LocalState>
      pending_;
  std::map<std::array<std::uint64_t, 3>, std::size_t> index_;
  std::vector<AtomicityReport> reports_;
};

}  // namespace owl::race
