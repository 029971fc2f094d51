// Dynamic race verifier (paper §5.2).
//
// Checks whether a reduced race report is a *real* race by catching it "in
// the racing moment": thread-specific breakpoints (our LLDB substrate) park
// each racing thread right before its racing instruction; when both are
// suspended and about to touch the same address, the race is verified and
// security hints are extracted — the racing instructions, the values about
// to be read/written, the variable's type, and whether a NULL write or an
// uninitialized read is in play.
//
// Livelock (a thread needed for progress is the suspended one) is resolved
// by temporarily releasing one triggered breakpoint, exactly as described.
// Some races cannot be reproduced on every schedule, so verification makes
// several seeded attempts before giving up (§5.2's two miss cases).
#pragma once

#include <functional>
#include <string>

#include "race/report.hpp"
#include "race/ski_detector.hpp"  // MachineFactory
#include "support/fault_injector.hpp"
#include "support/thread_pool.hpp"

namespace owl::verify {

struct RaceVerifyResult {
  bool verified = false;
  unsigned attempts = 0;
  /// Values captured in the racing moment.
  interp::Word value_about_to_read = 0;
  interp::Word value_about_to_write = 0;
  bool writes_null = false;        ///< NULL-pointer-deref hint
  bool reads_uninitialized = false;///< read observes a never-written cell
  std::string variable_type;       ///< static type of the racy operand
  std::string security_hint;       ///< the rendered §5.2 hint block

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
    /// §5.2 release rule allowance: breakpoint releases per attempt before
    /// the attempt is declared livelocked and a fresh seed is tried.
    std::uint64_t livelock_release_after = 1;
    /// Watchdog: machine-run resumptions per attempt before the verifier
    /// session is declared livelocked (breaks zero-progress break/release
    /// cycles that never reach the release rule).
    std::uint64_t watchdog_iterations = 4096;
    /// Resilience-layer fault-injection harness (may be null; not owned).
    support::FaultInjector* fault_injector = nullptr;
    /// Shards the seeded schedule-exploration attempts across this pool
    /// (not owned; null = explore sequentially). Each attempt is already
    /// an independent (machine, scheduler-seed) session, so they run
    /// concurrently and their outcomes are folded in attempt order —
    /// results are byte-identical to the sequential loop. Sharding only
    /// engages when no fault injector is attached: it threads one mutable
    /// state through the attempt sequence, which would make outcomes
    /// order-dependent.
    support::ThreadPool* pool = nullptr;
  };

  RaceVerifier() : RaceVerifier(Options{}) {}
  explicit RaceVerifier(Options options) : options_(options) {}

  /// Verifies one report against fresh machines from `factory`. On success
  /// the report's `verified` flag and `security_hint` are filled in.
  RaceVerifyResult verify(race::RaceReport& report,
                          const race::MachineFactory& factory) const;

 private:
  /// Everything one seeded attempt produces; verify() folds these in
  /// attempt order so sequential and pool-sharded exploration agree.
  struct AttemptOutcome {
    bool verified = false;
    bool livelocked = false;
    std::uint64_t steps = 0;
    unsigned livelock_releases = 0;
    // Racing-moment captures, filled only when verified:
    interp::Word value_about_to_read = 0;
    interp::Word value_about_to_write = 0;
    bool writes_null = false;
    std::string variable_type;
    std::string security_hint;
  };

  /// One breakpoint-choreography session under seed base_seed + attempt.
  AttemptOutcome run_attempt(const race::RaceReport& report,
                             const race::MachineFactory& factory,
                             unsigned attempt) const;

  /// One CTrigger-style re-manifestation run for an atomicity report.
  AttemptOutcome run_atomicity_attempt(const race::RaceReport& report,
                                       const race::MachineFactory& factory,
                                       unsigned attempt) const;

  /// True when the attempt loop may be sharded across options_.pool.
  bool can_shard() const noexcept {
    return options_.pool != nullptr && options_.max_attempts > 1 &&
           options_.fault_injector == nullptr;
  }

  /// Runs `attempts(i)` for every attempt index (concurrently when
  /// sharded), then folds outcomes in attempt order: accumulate
  /// accounting, stop at the first verified attempt — exactly the
  /// sequential early-exit semantics.
  RaceVerifyResult explore(
      race::RaceReport& report,
      const std::function<AttemptOutcome(unsigned)>& attempt) const;

  /// Reproduction-based verification for atomicity-violation reports
  /// (their accesses may be lock-protected, so the breakpoint choreography
  /// does not apply; CTrigger-style re-manifestation does).
  RaceVerifyResult verify_atomicity(race::RaceReport& report,
                                    const race::MachineFactory& factory) const;

  Options options_;
};

}  // namespace owl::verify
