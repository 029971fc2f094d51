// Dynamic vulnerability verifier (paper §6.2).
//
// Takes a static exploit report (vulnerable site + the corrupted branches
// that reach it) and re-runs the program to answer: can execution actually
// reach the site and realize the attack? The paper's version asks the user
// to decide the execution order of the racing instructions and to tune
// inputs; here the "user" is automated:
//  - the exploit driver supplies the vulnerable inputs (the machine
//    factory) and an optional preferred thread ordering;
//  - when the originating race report is provided, attempts alternate
//    between serializing write-before-read, read-before-write, and free
//    random schedules — breakpoints park one racing thread until the other
//    side has executed, which is exactly the LLDB choreography the paper
//    describes.
// Hint branches are watched with their *direction*: a branch only counts
// as satisfied if it takes a side from which the vulnerable site is still
// reachable. Branches never satisfied come back as "diverged" — the §6.2
// further-input hints.
#pragma once

#include <optional>
#include <vector>

#include "race/ski_detector.hpp"  // MachineFactory
#include "support/fault_injector.hpp"
#include "vuln/analyzer.hpp"

namespace owl::verify {

struct VulnVerifyResult {
  bool site_reached = false;
  /// A security event fired on a site-reaching run — the attack realized.
  bool attack_realized = false;
  unsigned attempts = 0;
  /// Hint branches that never took a site-reaching direction on any attempt
  /// ("diverged branches": refine inputs to satisfy these).
  std::vector<const ir::Instruction*> diverged_branches;
  /// Security events observed on the best run.
  std::vector<interp::SecurityEvent> events;

  // --- resilience accounting ---
  /// A verification session livelocked (watchdog fired) without reaching
  /// the site.
  bool livelocked = false;
  /// Interpreter steps spent verifying this exploit.
  std::uint64_t steps_spent = 0;
};

class VulnVerifier {
 public:
  struct Options {
    unsigned max_attempts = 12;
    std::uint64_t base_seed = 0xa77ac;
    /// Prefer running these threads first (exploit-driver ordering hint);
    /// used on attempts without race-order steering.
    std::vector<interp::ThreadId> thread_order;
    /// Watchdog: machine-run resumptions per attempt before the session is
    /// declared livelocked (zero-progress break/release cycles).
    std::uint64_t watchdog_iterations = 4096;
    /// Resilience-layer fault-injection harness (may be null; not owned).
    support::FaultInjector* fault_injector = nullptr;
  };

  VulnVerifier() : VulnVerifier(Options{}) {}
  explicit VulnVerifier(Options options) : options_(std::move(options)) {}

  /// Verifies one exploit. If `race` is non-null, its racing instruction
  /// pair is used to steer the racing moment (order enforcement).
  VulnVerifyResult verify(const vuln::ExploitReport& exploit,
                          const race::MachineFactory& factory,
                          const race::RaceReport* race = nullptr) const;

 private:
  Options options_;
};

}  // namespace owl::verify
