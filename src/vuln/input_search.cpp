#include "vuln/input_search.hpp"

#include <unordered_map>
#include <unordered_set>

#include "interp/debugger.hpp"
#include "support/rng.hpp"

namespace owl::vuln {
namespace {

struct Probe {
  unsigned branches_satisfied = 0;
  bool site_reached = false;
  bool attack_event = false;
};

/// One instrumented run: which hint branches took a site-reaching
/// direction, was the site reached, did a consequence fire.
Probe probe_run(const ExploitReport& exploit,
                const MachineWithInputs& factory,
                const std::vector<interp::Word>& inputs,
                std::uint64_t schedule_seed) {
  Probe probe;
  std::unique_ptr<interp::Machine> machine = factory(inputs);
  interp::Debugger debugger;
  machine->set_debugger(&debugger);

  const interp::BreakpointId site_bp = debugger.add_breakpoint(exploit.site);
  std::unordered_map<interp::BreakpointId, const ir::Instruction*> branch_bps;
  for (const ir::Instruction* br : exploit.branches) {
    branch_bps.emplace(debugger.add_breakpoint(br), br);
  }
  const auto good = site_reaching_targets(exploit);
  std::unordered_set<const ir::Instruction*> satisfied;

  interp::RandomScheduler scheduler(schedule_seed);
  bool done = false;
  while (!done) {
    const interp::RunResult run = machine->run(scheduler);
    switch (run.reason) {
      case interp::StopReason::kBreakpoint: {
        if (run.break_id == site_bp) {
          probe.site_reached = true;
        } else if (auto it = branch_bps.find(run.break_id);
                   it != branch_bps.end()) {
          const ir::Instruction* br = it->second;
          if (run.break_thread.has_value() && br->operand_count() == 1) {
            const interp::Word cond =
                machine->eval_in_thread(*run.break_thread, br->operand(0));
            const ir::BasicBlock* taken =
                cond != 0 ? br->targets()[0] : br->targets()[1];
            if (good.at(br).contains(taken)) satisfied.insert(br);
          }
        }
        if (run.break_thread.has_value()) {
          (void)machine->resume_thread(*run.break_thread, true);
        }
        break;
      }
      case interp::StopReason::kAllSuspended:
        for (const interp::Thread& t : machine->threads()) {
          if (t.state() == interp::ThreadState::kSuspended) {
            (void)machine->resume_thread(t.id(), true);
            break;
          }
        }
        break;
      case interp::StopReason::kAllFinished:
      case interp::StopReason::kDeadlock:
      case interp::StopReason::kStepBudget:
        done = true;
        break;
    }
  }

  probe.branches_satisfied = static_cast<unsigned>(satisfied.size());
  for (const interp::SecurityEvent& event : machine->security_events()) {
    if (event.kind != interp::SecurityEventKind::kDeadlock) {
      probe.attack_event = true;
      break;
    }
  }
  return probe;
}

}  // namespace

InputSearchResult search_vulnerable_inputs(const ExploitReport& exploit,
                                           const MachineWithInputs& factory,
                                           std::vector<interp::Word> base_inputs,
                                           const InputSearchOptions& options) {
  InputSearchResult result;
  if (exploit.site == nullptr || base_inputs.empty()) {
    result.inputs = std::move(base_inputs);
    return result;
  }

  Rng rng(options.seed);
  const auto score_of = [&](const std::vector<interp::Word>& inputs,
                            bool& attack, bool& site) {
    double score = 0.0;
    attack = false;
    site = false;
    for (unsigned k = 0; k < options.seeds_per_eval; ++k) {
      const Probe probe =
          probe_run(exploit, factory, inputs, options.seed + 977 * k + 1);
      ++result.evaluations;
      score += probe.branches_satisfied * 10.0;
      if (probe.site_reached) {
        score += 100.0;
        site = true;
      }
      if (probe.attack_event) {
        score += 1000.0;
        attack = true;
      }
    }
    return score;
  };

  std::vector<interp::Word> current = std::move(base_inputs);
  bool attack = false;
  bool site = false;
  double current_score = score_of(current, attack, site);
  result.site_reached = site;
  if (attack) {
    result.attack_found = true;
    result.inputs = std::move(current);
    result.best_score = current_score;
    return result;
  }

  for (unsigned round = 0; round < options.max_rounds; ++round) {
    ++result.rounds_used;
    std::vector<interp::Word> candidate = current;
    // Mutate one position (occasionally two) from the value pool.
    const unsigned mutations = rng.chance(1, 4) ? 2 : 1;
    for (unsigned mutation = 0; mutation < mutations; ++mutation) {
      const std::size_t index = rng.next_below(candidate.size());
      candidate[index] = options.candidates[rng.next_below(
          options.candidates.size())];
    }
    bool cand_attack = false;
    bool cand_site = false;
    const double cand_score = score_of(candidate, cand_attack, cand_site);
    if (cand_score > current_score) {
      current = std::move(candidate);
      current_score = cand_score;
      result.site_reached |= cand_site;
      if (cand_attack) {
        result.attack_found = true;
        break;
      }
    }
  }

  result.inputs = std::move(current);
  result.best_score = current_score;
  return result;
}

}  // namespace owl::vuln
