#include "verify/vuln_verifier.hpp"

#include <unordered_map>
#include <unordered_set>

#include "interp/debugger.hpp"
#include "ir/cfg.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace owl::verify {
namespace {

/// Targets of `branch` from which `site` is still reachable inside the same
/// function (a branch hit only "counts" when it goes this way). Branches in
/// other functions always count — cross-function reachability is what the
/// call-stack-directed analysis already established.
std::unordered_set<const ir::BasicBlock*> site_reaching_targets(
    const ir::Instruction* branch, const ir::Instruction* site) {
  std::unordered_set<const ir::BasicBlock*> good;
  if (branch == nullptr || site == nullptr ||
      branch->function() != site->function()) {
    for (const ir::BasicBlock* t : branch->targets()) good.insert(t);
    return good;
  }
  for (const ir::BasicBlock* start : branch->targets()) {
    std::unordered_set<const ir::BasicBlock*> seen;
    std::vector<const ir::BasicBlock*> work{start};
    bool reaches = false;
    while (!work.empty() && !reaches) {
      const ir::BasicBlock* bb = work.back();
      work.pop_back();
      if (!seen.insert(bb).second) continue;
      if (bb == site->parent()) {
        reaches = true;
        break;
      }
      for (ir::BasicBlock* s : bb->successors()) work.push_back(s);
    }
    if (reaches) good.insert(start);
  }
  return good;
}

enum class Steering { kWriteFirst, kReadFirst, kFree };

}  // namespace

VulnVerifyResult VulnVerifier::verify(const vuln::ExploitReport& exploit,
                                      const race::MachineFactory& factory,
                                      const race::RaceReport* race) const {
  TRACE_SPAN("vuln-verify-session", "exploit");
  VulnVerifyResult result;
  if (exploit.site == nullptr) return result;
  support::metrics().counter("vuln_verifier.sessions").inc();

  // Precompute the site-reaching direction of every hint branch.
  std::unordered_map<const ir::Instruction*,
                     std::unordered_set<const ir::BasicBlock*>>
      good_targets;
  for (const ir::Instruction* br : exploit.branches) {
    good_targets.emplace(br, site_reaching_targets(br, exploit.site));
  }
  std::unordered_set<const ir::Instruction*> branches_satisfied;

  const race::AccessRecord* racy_read =
      race != nullptr ? race->read_side() : nullptr;
  const race::AccessRecord* racy_write =
      race != nullptr ? race->write_side() : nullptr;
  const bool can_steer = racy_read != nullptr && racy_write != nullptr &&
                         racy_read->instr != nullptr &&
                         racy_write->instr != nullptr &&
                         racy_read->tid != racy_write->tid;

  bool any_livelock = false;
  for (unsigned attempt = 0; attempt < options_.max_attempts; ++attempt) {
    ++result.attempts;
    Steering steering = Steering::kFree;
    if (can_steer) {
      // Alternate the racing-instruction order across attempts (§6.2's
      // "decide the execution order"), keeping every third attempt free.
      steering = attempt % 3 == 0   ? Steering::kWriteFirst
                 : attempt % 3 == 1 ? Steering::kReadFirst
                                    : Steering::kFree;
    }

    std::unique_ptr<interp::Machine> machine = factory();
    interp::Debugger debugger;
    machine->set_debugger(&debugger);
    machine->set_fault_injector(options_.fault_injector);

    const interp::BreakpointId site_bp = debugger.add_breakpoint(exploit.site);
    std::unordered_map<interp::BreakpointId, const ir::Instruction*>
        branch_bps;
    for (const ir::Instruction* br : exploit.branches) {
      branch_bps.emplace(debugger.add_breakpoint(br), br);
    }

    interp::BreakpointId first_bp = 0;
    interp::BreakpointId second_bp = 0;
    interp::ThreadId second_tid = 0;
    if (steering != Steering::kFree) {
      // "first" must execute before "second" is allowed past its park.
      const race::AccessRecord* first =
          steering == Steering::kWriteFirst ? racy_write : racy_read;
      const race::AccessRecord* second =
          steering == Steering::kWriteFirst ? racy_read : racy_write;
      first_bp = debugger.add_breakpoint(first->instr, first->tid);
      second_bp = debugger.add_breakpoint(second->instr, second->tid);
      second_tid = second->tid;
    }

    std::unique_ptr<interp::Scheduler> scheduler;
    if (steering == Steering::kFree && !options_.thread_order.empty() &&
        attempt % 2 == 0) {
      scheduler =
          std::make_unique<interp::PriorityScheduler>(options_.thread_order);
    } else {
      scheduler = std::make_unique<interp::RandomScheduler>(
          options_.base_seed + attempt);
    }

    bool reached_this_run = false;
    bool first_done = steering == Steering::kFree;
    bool second_parked = false;
    bool done = false;
    std::uint64_t iterations = 0;
    std::uint64_t last_steps = 0;
    while (!done) {
      if (++iterations > options_.watchdog_iterations) {
        // Watchdog: a zero-progress break/release cycle (e.g. an injected
        // breakpoint livelock) — abandon the attempt.
        any_livelock = true;
        break;
      }
      const interp::RunResult run = machine->run(*scheduler);
      result.steps_spent += run.steps - last_steps;
      last_steps = run.steps;
      switch (run.reason) {
        case interp::StopReason::kBreakpoint: {
          if (run.break_id == site_bp) {
            reached_this_run = true;
          } else if (auto it = branch_bps.find(run.break_id);
                     it != branch_bps.end()) {
            // Record the direction the branch is about to take.
            const ir::Instruction* br = it->second;
            if (run.break_thread.has_value() && br->operand_count() == 1) {
              const interp::Word cond = machine->eval_in_thread(
                  *run.break_thread, br->operand(0));
              const ir::BasicBlock* taken =
                  cond != 0 ? br->targets()[0] : br->targets()[1];
              if (good_targets.at(br).contains(taken)) {
                branches_satisfied.insert(br);
              }
            }
          } else if (run.break_id == second_bp && !first_done) {
            // Park the second racing instruction until the first executes.
            second_parked = true;
            break;  // leave suspended
          } else if (run.break_id == first_bp) {
            first_done = true;
            debugger.set_enabled(second_bp, false);
            if (second_parked) {
              (void)machine->resume_thread(second_tid, true);
              second_parked = false;
            }
          }
          if (run.break_thread.has_value() &&
              machine->thread(*run.break_thread)->state() ==
                  interp::ThreadState::kSuspended &&
              !(run.break_id == second_bp && !first_done)) {
            (void)machine->resume_thread(*run.break_thread, true);
          }
          break;
        }
        case interp::StopReason::kAllSuspended:
          // The parked racing thread blocks everyone else: give up on the
          // steering for this attempt (the §5.2 livelock release rule).
          for (const auto& t : machine->threads()) {
            if (t->state() == interp::ThreadState::kSuspended) {
              (void)machine->resume_thread(t->id(), true);
              break;
            }
          }
          first_done = true;
          debugger.set_enabled(second_bp, false);
          second_parked = false;
          break;
        case interp::StopReason::kAllFinished:
        case interp::StopReason::kDeadlock:
        case interp::StopReason::kStepBudget:
          done = true;
          break;
      }
    }

    if (reached_this_run) {
      result.site_reached = true;
      bool realized = false;
      for (const interp::SecurityEvent& event : machine->security_events()) {
        if (event.kind != interp::SecurityEventKind::kDeadlock) {
          realized = true;
          break;
        }
      }
      if (realized || result.events.empty()) {
        result.events = machine->security_events();
      }
      if (realized) {
        result.attack_realized = true;
        break;  // reached the site AND observed the consequence
      }
      // Site reached but no consequence yet: keep exploring schedules.
    }
  }

  result.livelocked = any_livelock && !result.site_reached;
  if (!result.site_reached) {
    for (const ir::Instruction* br : exploit.branches) {
      if (!branches_satisfied.contains(br)) {
        result.diverged_branches.push_back(br);
      }
    }
  }
  // Flushed from the final result so the sums depend only on outcomes, not
  // on how this session's schedules happened to be explored.
  support::MetricsRegistry& registry = support::metrics();
  registry.counter("vuln_verifier.attempts").inc(result.attempts);
  if (result.site_reached) {
    registry.counter("vuln_verifier.site_reached").inc();
  }
  if (result.attack_realized) {
    registry.counter("vuln_verifier.attack_realized").inc();
  }
  if (result.livelocked) registry.counter("vuln_verifier.livelocked").inc();
  return result;
}

}  // namespace owl::verify
