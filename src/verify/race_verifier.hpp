// Dynamic race verifier (paper §5.2).
//
// Checks whether a reduced race report is a *real* race by catching it "in
// the racing moment": thread-specific breakpoints (our LLDB substrate) park
// each racing thread right before its racing instruction; when both are
// suspended and about to touch the same address, the race is verified and
// the report's security hint is rendered from the racing moment — the
// racy object, the values about to be read/written, the variable's type,
// and whether a NULL write is in play.
//
// Livelock (a thread needed for progress is the suspended one) is resolved
// by temporarily releasing one triggered breakpoint, exactly as described.
// Some races cannot be reproduced on every schedule, so verification makes
// several seeded attempts before giving up (§5.2's two miss cases).
#pragma once

#include <exception>
#include <functional>
#include <string>

#include "interp/machine.hpp"
#include "race/report.hpp"
#include "support/fault_injector.hpp"
#include "support/thread_pool.hpp"

namespace owl::verify {

struct RaceVerifyResult {
  bool verified = false;
  unsigned attempts = 0;

  // --- resilience accounting ---
  /// Times the §5.2 livelock-release rule fired (across all attempts).
  unsigned livelock_releases = 0;
  /// The session livelocked (release allowance or watchdog exhausted on an
  /// attempt) and the report was never verified.
  bool livelocked = false;
  /// Interpreter steps spent verifying this report.
  std::uint64_t steps_spent = 0;
};

class RaceVerifier {
 public:
  struct Options {
    unsigned max_attempts = 8;
    std::uint64_t base_seed = 0x5eed;
    /// Resilience-layer fault-injection harness (may be null; not owned).
    support::FaultInjector* fault_injector = nullptr;
    /// Runs the seeded schedule-exploration attempts (not owned; null runs
    /// them in order on the caller). Each attempt is an independent
    /// (machine, scheduler-seed) session, so they run concurrently and
    /// their outcomes are folded in attempt order — results are
    /// byte-identical for every pool size. With a fault injector attached,
    /// pass no pool or a one-thread one: the injector threads one mutable
    /// state through the attempt sequence, which would make outcomes
    /// order-dependent.
    support::ThreadPool* pool = nullptr;
  };

  RaceVerifier() : RaceVerifier(Options{}) {}
  explicit RaceVerifier(Options options) : options_(options) {}

  /// Verifies one report against fresh machines from `factory`. On success
  /// the report's `verified` flag and `security_hint` are filled in.
  RaceVerifyResult verify(race::RaceReport& report,
                          const interp::MachineFactory& factory) const;

 private:
  /// Everything one seeded attempt produces; explore() folds these in
  /// attempt order so every pool size agrees.
  struct AttemptOutcome {
    bool verified = false;
    bool livelocked = false;
    std::uint64_t steps = 0;
    unsigned livelock_releases = 0;
    /// The rendered §5.2 hint, filled only when verified.
    std::string security_hint;
    /// What the attempt threw; the fold rethrows it in attempt order.
    std::exception_ptr error;
  };

  /// One breakpoint-choreography session under seed base_seed + attempt.
  AttemptOutcome run_attempt(const race::RaceReport& report,
                             const interp::MachineFactory& factory,
                             unsigned attempt) const;

  /// One CTrigger-style re-manifestation run for an atomicity report.
  AttemptOutcome run_atomicity_attempt(const race::RaceReport& report,
                                       const interp::MachineFactory& factory,
                                       unsigned attempt) const;

  /// Runs `attempt(i)` over the attempt indices on options_.pool, then
  /// folds outcomes in attempt order: accumulate accounting, stop at the
  /// first verified attempt — exactly the sequential early-exit semantics.
  RaceVerifyResult explore(
      race::RaceReport& report,
      const std::function<AttemptOutcome(unsigned)>& attempt) const;

  /// Reproduction-based verification for atomicity-violation reports
  /// (their accesses may be lock-protected, so the breakpoint choreography
  /// does not apply; CTrigger-style re-manifestation does).
  RaceVerifyResult verify_atomicity(
      race::RaceReport& report, const interp::MachineFactory& factory) const;

  Options options_;
};

}  // namespace owl::verify
