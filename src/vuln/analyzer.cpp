#include "vuln/analyzer.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <unordered_set>

#include "analysis/value_flow.hpp"
#include "ir/callgraph.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace owl::vuln {

VulnerabilityAnalyzer::VulnerabilityAnalyzer(const ir::Module& module,
                                             Options options)
    : module_(&module), options_(options) {}

const ControlDependence& VulnerabilityAnalyzer::control_dep(
    const ir::Function* function) const {
  auto it = cd_cache_.find(function);
  if (it == cd_cache_.end()) {
    it = cd_cache_
             .emplace(function, std::make_unique<ControlDependence>(*function))
             .first;
  }
  return *it->second;
}

namespace {

/// Instructions one analyze_from() call visits before it stops descending.
constexpr std::uint64_t kMaxVisitedInstructions = 5'000'000;

/// The walking state of one analyze_from() call (Algorithm 1's globals).
class Walker {
 public:
  Walker(const VulnerabilityAnalyzer::Options& options,
         const std::function<const ControlDependence&(const ir::Function*)>&
             cd_provider)
      : options_(options), cd_(cd_provider) {}

  VulnAnalysis result;

  void mark_corrupted(const ir::Value* value, const ir::Value* parent) {
    if (corrupted_.insert(value).second && parent != nullptr) {
      parent_[value] = parent;
    }
  }
  bool is_corrupted(const ir::Value* value) const {
    return corrupted_.contains(value);
  }

  /// Analyzes `function` starting at (`block`, `index`); returns true if a
  /// return value of the function is (data- or control-)corrupted.
  bool detect(const ir::Function* function, const ir::BasicBlock* block,
              std::size_t index, bool ctrl_in, std::size_t depth) {
    if (depth > options_.max_call_depth) return false;
    if (result.stats.instructions_visited >= kMaxVisitedInstructions) {
      return false;
    }
    if (!on_path_.insert(function).second) return false;  // recursion guard
    ++result.stats.functions_visited;

    const ControlDependence& cd = cd_(function);

    // Collect the forward-reachable instruction sequence once: the start
    // block from `index`, then every block reachable from it.
    std::vector<const ir::Instruction*> order;
    {
      std::unordered_set<const ir::BasicBlock*> seen{block};
      for (std::size_t i = index; i < block->size(); ++i) {
        order.push_back(block->instructions()[i].get());
      }
      std::vector<const ir::BasicBlock*> work;
      for (const ir::BasicBlock* s : block->successors()) work.push_back(s);
      while (!work.empty()) {
        const ir::BasicBlock* bb = work.back();
        work.pop_back();
        if (!seen.insert(bb).second) continue;
        for (const auto& instr : bb->instructions()) {
          order.push_back(instr.get());
        }
        for (const ir::BasicBlock* s : bb->successors()) work.push_back(s);
      }
    }

    // Fixpoint over the sequence (loops flow corruption backwards in the
    // listing order, so iterate until stable).
    std::vector<const ir::Instruction*> local_brs;
    bool ret_corrupted = false;
    bool changed = true;
    int passes = 0;
    while (changed && passes++ < 8) {
      changed = false;
      for (const ir::Instruction* instr : order) {
        ++result.stats.instructions_visited;
        if (process(function, cd, instr, local_brs, ctrl_in, depth, changed,
                    ret_corrupted)) {
          changed = true;
        }
      }
    }

    on_path_.erase(function);
    return ret_corrupted;
  }

  /// Memory-corrupted readers discovered since the last call, in value-flow
  /// node order (module declaration order). Each reader is handed out once;
  /// the driver re-runs detect() from it so corruption surfacing in
  /// functions the register walk never visits still reaches the site scan.
  std::vector<const ir::Instruction*> take_mem_seeds() {
    std::vector<const ir::Instruction*> seeds = std::move(mem_seeds_);
    mem_seeds_.clear();
    if (options_.value_flow != nullptr) {
      std::sort(seeds.begin(), seeds.end(),
                [this](const ir::Instruction* a, const ir::Instruction* b) {
                  std::size_t ia = 0;
                  std::size_t ib = 0;
                  options_.value_flow->node_index(a, ia);
                  options_.value_flow->node_index(b, ib);
                  return ia < ib;
                });
    }
    return seeds;
  }

 private:
  /// Handles one instruction; returns true if state grew.
  bool process(const ir::Function* function, const ControlDependence& cd,
               const ir::Instruction* instr,
               std::vector<const ir::Instruction*>& local_brs, bool ctrl_in,
               std::size_t depth, bool& /*changed*/, bool& ret_corrupted) {
    bool grew = false;

    // Control context: inherited from the caller, or via a local corrupted
    // branch this instruction depends on.
    const ir::Instruction* controlling = nullptr;
    if (options_.track_control_flow) {
      for (const ir::Instruction* cbr : local_brs) {
        if (cd.depends(instr, cbr)) {
          controlling = cbr;
          break;
        }
      }
    }
    const bool ctrl_here =
        options_.track_control_flow && (ctrl_in || controlling != nullptr);

    // Vulnerable site under corrupted control flow (Fig. 1 line 165,
    // Fig. 6 line 347).
    if (ctrl_here) {
      if (auto type = classify_site(*instr)) {
        grew |= report(instr, *type, DepKind::kControl, function, controlling,
                       &cd, &local_brs);
      }
    }

    // Data flow.
    const ir::Value* tainting = nullptr;
    for (const ir::Value* op : instr->operands()) {
      if (is_corrupted(op)) {
        tainting = op;
        break;
      }
    }
    if (tainting == nullptr) {
      for (const ir::Value* v : instr->phi_values()) {
        if (is_corrupted(v)) {
          tainting = v;
          break;
        }
      }
    }

    if (tainting != nullptr) {
      if (auto type = classify_site(*instr)) {
        grew |= report(instr, *type, DepKind::kData, function, controlling,
                       &cd, &local_brs);
      }
      const std::size_t ptr_idx = pointer_operand_index(*instr);
      if (ptr_idx != SIZE_MAX && ptr_idx < instr->operand_count() &&
          is_corrupted(instr->operand(ptr_idx))) {
        if (auto type = classify_pointer_deref(*instr, true)) {
          grew |= report(instr, *type, DepKind::kData, function, controlling,
                         &cd, &local_brs);
        }
      }
      if (!instr->type().is_void() && !is_corrupted(instr)) {
        mark_corrupted(instr, tainting);
        grew = true;
      }
      if (instr->is_branch() &&
          std::find(local_brs.begin(), local_brs.end(), instr) ==
              local_brs.end()) {
        local_brs.push_back(instr);
        if (!parent_.contains(instr)) parent_[instr] = tainting;
        grew = true;
      }
    }

    // Memory-mediated propagation (--vuln-flow on/audit): a corrupted
    // value written to memory corrupts every may-aliased reader. Readers
    // are marked here; the analyze_from() driver restarts the walk from
    // readers in functions this walk never visits (DESIGN.md §14).
    if (options_.value_flow != nullptr) {
      bool writes_corrupted = false;
      switch (instr->opcode()) {
        case ir::Opcode::kStore:
          writes_corrupted = is_corrupted(instr->operand(0));
          break;
        case ir::Opcode::kAtomicRMWAdd:
          writes_corrupted =
              is_corrupted(instr) || is_corrupted(instr->operand(1));
          break;
        case ir::Opcode::kStrCpy:
        case ir::Opcode::kMemCopy:
          // The copied content is corrupted when a corrupted writer
          // reaches this site's source region (mem edge marked the
          // instruction itself).
          writes_corrupted = is_corrupted(instr);
          break;
        default:
          break;
      }
      if (writes_corrupted) {
        if (instr->opcode() == ir::Opcode::kStore && !is_corrupted(instr)) {
          mark_corrupted(instr, instr->operand(0));  // hint-chain link
          grew = true;
        }
        for (const ir::Instruction* reader :
             options_.value_flow->mem_successors(instr)) {
          if (is_corrupted(reader)) continue;
          mark_corrupted(reader, instr);
          grew = true;
          if (mem_seeded_.insert(reader).second) {
            mem_seeds_.push_back(reader);
          }
        }
      }
    }

    // Transitively corrupted control: a branch guarded by a corrupted
    // branch corrupts its own region too.
    if (instr->is_branch() && controlling != nullptr &&
        std::find(local_brs.begin(), local_brs.end(), instr) ==
            local_brs.end()) {
      local_brs.push_back(instr);
      // Remember how control reached this branch for hint chains.
      if (!parent_.contains(instr)) parent_[instr] = controlling;
      grew = true;
    }

    // Descend into direct callees when an argument is corrupted or the call
    // sits in corrupted control context.
    if (instr->opcode() == ir::Opcode::kCall) {
      const ir::Function* callee = instr->callee();
      std::uint64_t arg_mask = 0;
      for (std::size_t i = 0;
           i < instr->operand_count() && i < 64; ++i) {
        if (is_corrupted(instr->operand(i))) arg_mask |= 1ULL << i;
      }
      if (options_.interprocedural && callee != nullptr &&
          callee->is_internal() && callee->has_body() &&
          (arg_mask != 0 || ctrl_here)) {
        const DescentKey key{callee, arg_mask, ctrl_here};
        auto memo = descended_.find(key);
        bool callee_ret_corrupted;
        if (memo != descended_.end()) {
          callee_ret_corrupted = memo->second;
        } else {
          descended_[key] = false;  // cut cycles pessimistically
          for (std::size_t i = 0;
               i < callee->arguments().size() && i < instr->operand_count();
               ++i) {
            if (arg_mask & (1ULL << i)) {
              mark_corrupted(callee->argument(i), instr->operand(i));
            }
          }
          // Carry the controlling branch across the call so sites inside
          // the callee list it among their reaching branches (SSDB's
          // del_range sites must name the binlog.cpp:360 guard).
          const bool pushed = controlling != nullptr;
          if (pushed) ctrl_context_.push_back(controlling);
          callee_ret_corrupted = detect(callee, callee->entry(), 0, ctrl_here,
                                        depth + 1);
          if (pushed) ctrl_context_.pop_back();
          descended_[key] = callee_ret_corrupted;
        }
        if (callee_ret_corrupted && !instr->type().is_void() &&
            !is_corrupted(instr)) {
          mark_corrupted(instr, nullptr);
          grew = true;
        }
      }
    }

    // Descend into indirect callees the points-to analysis resolved.
    // Without the map this was Algorithm 1's blind spot: corruption
    // flowing into a function-pointer dispatch was dropped at the callptr
    // site. Operand 0 is the dispatched pointer; operand i+1 is argument i.
    if (instr->opcode() == ir::Opcode::kCallPtr && options_.interprocedural &&
        options_.resolved_indirect != nullptr) {
      auto resolved = options_.resolved_indirect->find(instr);
      if (resolved != options_.resolved_indirect->end()) {
        std::uint64_t arg_mask = 0;
        for (std::size_t i = 1; i < instr->operand_count() && i <= 64; ++i) {
          if (is_corrupted(instr->operand(i))) arg_mask |= 1ULL << (i - 1);
        }
        if (arg_mask != 0 || ctrl_here) {
          bool any_ret_corrupted = false;
          // Targets are in module order (points-to resolution emits them
          // sorted), so the walk is deterministic.
          for (const ir::Function* callee : resolved->second) {
            if (callee == nullptr || !callee->is_internal() ||
                !callee->has_body()) {
              continue;
            }
            const DescentKey key{callee, arg_mask, ctrl_here};
            auto memo = descended_.find(key);
            bool callee_ret_corrupted;
            if (memo != descended_.end()) {
              callee_ret_corrupted = memo->second;
            } else {
              descended_[key] = false;  // cut cycles pessimistically
              for (std::size_t i = 0; i < callee->arguments().size() &&
                                      i + 1 < instr->operand_count();
                   ++i) {
                if (arg_mask & (1ULL << i)) {
                  mark_corrupted(callee->argument(i), instr->operand(i + 1));
                }
              }
              const bool pushed = controlling != nullptr;
              if (pushed) ctrl_context_.push_back(controlling);
              callee_ret_corrupted =
                  detect(callee, callee->entry(), 0, ctrl_here, depth + 1);
              if (pushed) ctrl_context_.pop_back();
              descended_[key] = callee_ret_corrupted;
            }
            any_ret_corrupted |= callee_ret_corrupted;
          }
          if (any_ret_corrupted && !instr->type().is_void() &&
              !is_corrupted(instr)) {
            mark_corrupted(instr, nullptr);
            grew = true;
          }
        }
      }
    }

    // Return-value corruption: a corrupted operand, or a return under
    // corrupted control (Libsafe's "if (dying) return 0", Fig. 1 line 146).
    if (instr->opcode() == ir::Opcode::kRet && !ret_corrupted) {
      const bool operand_corrupted =
          instr->operand_count() == 1 && is_corrupted(instr->operand(0));
      if (operand_corrupted || (ctrl_here && instr->operand_count() == 1)) {
        ret_corrupted = true;
        grew = true;
      }
    }

    return grew;
  }

  bool report(const ir::Instruction* site, SiteType type, DepKind dep,
              const ir::Function* function,
              const ir::Instruction* controlling,
              const ControlDependence* cd = nullptr,
              const std::vector<const ir::Instruction*>* local_brs = nullptr) {
    if (!reported_.emplace(site, dep).second) return false;

    ExploitReport exploit;
    exploit.site = site;
    exploit.type = type;
    exploit.dep = dep;
    exploit.function = function;

    // Propagation chain: the corrupted-value ancestry of the site (or of
    // its controlling branch), root first.
    const ir::Value* walk =
        dep == DepKind::kControl && controlling != nullptr
            ? static_cast<const ir::Value*>(controlling)
            : static_cast<const ir::Value*>(site);
    std::vector<const ir::Instruction*> chain_branches;
    std::unordered_set<const ir::Value*> seen;
    while (walk != nullptr && seen.insert(walk).second) {
      if (const auto* as_instr = dynamic_cast<const ir::Instruction*>(walk)) {
        exploit.propagation.push_back(as_instr);
        if (as_instr->is_branch()) {
          chain_branches.push_back(as_instr);
        }
      }
      auto it = parent_.find(walk);
      walk = it != parent_.end() ? it->second : nullptr;
    }
    std::reverse(exploit.propagation.begin(), exploit.propagation.end());
    std::reverse(chain_branches.begin(), chain_branches.end());

    // Branch hints: EVERY corrupted branch execution must satisfy to reach
    // the site — the directly controlling one, its transitive guards, plus
    // the data-ancestry branches. Ordered outermost (closest to the racy
    // read) first, matching the paper's "what are the branches to reach the
    // vulnerability operation".
    std::vector<const ir::Instruction*> guards;
    // Inherited control context from enclosing calls, outermost first.
    const std::vector<const ir::Instruction*> inherited(ctrl_context_.begin(),
                                                        ctrl_context_.end());
    if (controlling != nullptr && cd != nullptr && local_brs != nullptr) {
      guards.push_back(controlling);
      bool grew_guards = true;
      while (grew_guards) {
        grew_guards = false;
        for (const ir::Instruction* cbr : *local_brs) {
          if (std::find(guards.begin(), guards.end(), cbr) != guards.end()) {
            continue;
          }
          for (const ir::Instruction* g : guards) {
            if (cd->depends(g, cbr)) {
              guards.push_back(cbr);
              grew_guards = true;
              break;
            }
          }
        }
      }
      std::reverse(guards.begin(), guards.end());  // outermost first
    }
    for (const ir::Instruction* br : inherited) {
      if (std::find(exploit.branches.begin(), exploit.branches.end(), br) ==
          exploit.branches.end()) {
        exploit.branches.push_back(br);
      }
    }
    for (const ir::Instruction* br : guards) {
      if (std::find(exploit.branches.begin(), exploit.branches.end(), br) ==
          exploit.branches.end()) {
        exploit.branches.push_back(br);
      }
    }
    for (const ir::Instruction* br : chain_branches) {
      if (std::find(exploit.branches.begin(), exploit.branches.end(), br) ==
          exploit.branches.end()) {
        exploit.branches.push_back(br);
      }
    }

    result.exploits.push_back(std::move(exploit));
    return true;
  }

  struct DescentKey {
    const ir::Function* callee;
    std::uint64_t arg_mask;
    bool ctrl;
    bool operator<(const DescentKey& o) const {
      return std::tie(callee, arg_mask, ctrl) <
             std::tie(o.callee, o.arg_mask, o.ctrl);
    }
  };

  const VulnerabilityAnalyzer::Options& options_;
  const std::function<const ControlDependence&(const ir::Function*)>& cd_;
  std::unordered_set<const ir::Value*> corrupted_;
  std::unordered_map<const ir::Value*, const ir::Value*> parent_;
  std::unordered_set<const ir::Function*> on_path_;
  /// Controlling branches of enclosing call sites (outermost first).
  std::vector<const ir::Instruction*> ctrl_context_;
  std::map<DescentKey, bool> descended_;
  std::set<std::pair<const ir::Instruction*, DepKind>> reported_;
  /// Readers corrupted via store→load edges, pending a driver restart.
  std::vector<const ir::Instruction*> mem_seeds_;
  std::unordered_set<const ir::Instruction*> mem_seeded_;
};

}  // namespace

VulnAnalysis VulnerabilityAnalyzer::analyze(
    const race::RaceReport& report) const {
  const race::AccessRecord* read = report.read_side();
  if (read == nullptr || read->instr == nullptr) {
    VulnAnalysis empty;
    return empty;
  }
  return analyze_from(read->instr, read->stack);
}

VulnAnalysis VulnerabilityAnalyzer::analyze_from(
    const ir::Instruction* corrupted_read,
    const interp::CallStack& stack) const {
  TRACE_SPAN("vuln-analyze-report", "algorithm1");
  support::metrics().counter("vuln_analyzer.reports_analyzed").inc();
  const auto start_time = std::chrono::steady_clock::now();

  const std::function<const ControlDependence&(const ir::Function*)>
      cd_provider = [this](const ir::Function* f) -> const ControlDependence& {
    return control_dep(f);
  };
  Walker walker(options_, cd_provider);
  walker.result.start = corrupted_read;
  walker.mark_corrupted(corrupted_read, nullptr);

  const ir::Function* read_function = corrupted_read->function();
  if (read_function != nullptr && corrupted_read->parent() != nullptr) {
    // Innermost frame: from the corrupted read onward.
    bool ret_corrupted = walker.detect(
        read_function, corrupted_read->parent(),
        corrupted_read->parent()->index_of(corrupted_read), /*ctrl_in=*/false,
        /*depth=*/0);

    if (options_.mode == Mode::kDirected && options_.interprocedural) {
      // Walk the runtime call stack upwards, following the return value
      // (Algorithm 1's cs.pop loop). stack is outermost-first; the last
      // entry is the read itself.
      for (std::size_t i = stack.size(); i-- > 1;) {
        const interp::StackEntry& caller = stack[i - 1];
        const ir::Instruction* call_site = caller.instr;
        if (call_site == nullptr || caller.function == nullptr) break;
        if (!ret_corrupted) break;
        if (!call_site->type().is_void()) {
          walker.mark_corrupted(call_site, corrupted_read);
        }
        ret_corrupted = walker.detect(
            caller.function, call_site->parent(),
            call_site->parent()->index_of(call_site) + 1, /*ctrl_in=*/false,
            /*depth=*/0);
      }
    } else if (options_.interprocedural) {
      // Whole-program ablation: no runtime stack — conservatively continue
      // into *every* static caller of the read's function, transitively.
      // With resolved indirect calls the graph includes fnptr dispatchers.
      ir::CallGraph cg = options_.resolved_indirect != nullptr
                             ? ir::CallGraph(*module_,
                                             *options_.resolved_indirect)
                             : ir::CallGraph(*module_);
      std::unordered_set<const ir::Function*> visited{read_function};
      std::vector<const ir::Function*> work{read_function};
      while (!work.empty()) {
        const ir::Function* f = work.back();
        work.pop_back();
        // Iterate callers in module declaration order, not the hash order
        // of the callers() set: the walk has per-call-site state (memo,
        // report dedup), so enumeration order is observable in the output
        // and must stay byte-identical across jobs/repeat runs.
        const std::unordered_set<ir::Function*>& caller_set = cg.callers(f);
        for (const auto& fn : module_->functions()) {
          ir::Function* caller = fn.get();
          if (caller_set.count(caller) == 0) continue;
          for (const ir::Instruction* site : cg.call_sites(f)) {
            if (site->function() != caller) continue;
            if (!site->type().is_void()) {
              walker.mark_corrupted(site, corrupted_read);
            }
            walker.detect(caller, site->parent(),
                          site->parent()->index_of(site) + 1,
                          /*ctrl_in=*/false, /*depth=*/0);
          }
          if (visited.insert(caller).second) work.push_back(caller);
        }
      }
    }

    // Drain memory-mediated seeds: every reader corrupted through a
    // store→load edge restarts the walk in its own function (which the
    // register-only walk may never have entered). Seeds are unique per
    // instruction, so this terminates.
    while (true) {
      const std::vector<const ir::Instruction*> seeds =
          walker.take_mem_seeds();
      if (seeds.empty()) break;
      for (const ir::Instruction* seed : seeds) {
        if (seed->function() == nullptr || seed->parent() == nullptr) {
          continue;
        }
        walker.detect(seed->function(), seed->parent(),
                      seed->parent()->index_of(seed), /*ctrl_in=*/false,
                      /*depth=*/0);
      }
    }
  }

  VulnAnalysis analysis = std::move(walker.result);
  analysis.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  support::metrics().counter("vuln_analyzer.exploits")
      .inc(analysis.exploits.size());
  return analysis;
}

std::unordered_map<const ir::Instruction*,
                   std::unordered_set<const ir::BasicBlock*>>
site_reaching_targets(const ExploitReport& exploit) {
  const ir::Instruction* site = exploit.site;
  std::unordered_map<const ir::Instruction*,
                     std::unordered_set<const ir::BasicBlock*>>
      good;
  for (const ir::Instruction* branch : exploit.branches) {
    std::unordered_set<const ir::BasicBlock*>& targets = good[branch];
    for (const ir::BasicBlock* start : branch->targets()) {
      if (site == nullptr || branch->function() != site->function()) {
        targets.insert(start);
        continue;
      }
      std::unordered_set<const ir::BasicBlock*> seen;
      std::vector<const ir::BasicBlock*> work{start};
      while (!work.empty()) {
        const ir::BasicBlock* bb = work.back();
        work.pop_back();
        if (!seen.insert(bb).second) continue;
        if (bb == site->parent()) {
          targets.insert(start);
          break;
        }
        for (ir::BasicBlock* s : bb->successors()) work.push_back(s);
      }
    }
  }
  return good;
}

}  // namespace owl::vuln
