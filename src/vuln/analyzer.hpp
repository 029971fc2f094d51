// OWL's static vulnerability analyzer — Algorithm 1 (paper §6.1).
//
// Takes the corrupted *load* of a race report plus that load's runtime call
// stack, and walks forward through data and control dependences — across
// calls, guided by the call stack — looking for the five vulnerable-site
// types. The call-stack guidance is the paper's central accuracy/scalability
// trade (§4.1): bugs and their attacks share call-stack prefixes (§3.2), so
// the walk skips every function the runtime evidence says is irrelevant.
//
// Design decisions transcribed from §6.1:
//  - propagation is tracked through virtual registers only (no pointer
//    analysis; the detectors' runtime read instructions compensate);
//  - the walk starts at the bug's call stack and pops callers, following
//    return values, until the stack is empty;
//  - control dependence is computed per function (Ferrante et al. via
//    post-dominators) and treated transitively: a branch that is itself
//    control-corrupted corrupts everything it guards.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "interp/thread.hpp"
#include "ir/callgraph.hpp"
#include "ir/module.hpp"
#include "race/report.hpp"
#include "vuln/control_dep.hpp"
#include "vuln/sites.hpp"

namespace owl::analysis {
class ValueFlowGraph;
}  // namespace owl::analysis

namespace owl::vuln {

enum class DepKind { kControl, kData };

/// One potential bug-to-attack propagation — the "vulnerable input hint".
struct ExploitReport {
  const ir::Instruction* site = nullptr;
  SiteType type = SiteType::kMemoryOp;
  DepKind dep = DepKind::kData;
  const ir::Function* function = nullptr;

  /// Corrupted branches on the way to the site; satisfying these with
  /// program inputs is what triggers the attack (the paper's Fig. 5 output).
  std::vector<const ir::Instruction*> branches;
  /// Register-level propagation chain from the racy read toward the site.
  std::vector<const ir::Instruction*> propagation;
};

/// Per hint branch of `exploit`, the targets from which its site is still
/// reachable inside the branch's function: input search and the dynamic
/// vulnerability verifier count a branch hit only when it goes one of these
/// ways. A branch in another function keeps every target — cross-function
/// reachability is what the call-stack-directed analysis established.
std::unordered_map<const ir::Instruction*,
                   std::unordered_set<const ir::BasicBlock*>>
site_reaching_targets(const ExploitReport& exploit);

struct AnalysisStats {
  std::uint64_t functions_visited = 0;
  std::uint64_t instructions_visited = 0;
  double seconds = 0.0;
};

struct VulnAnalysis {
  const ir::Instruction* start = nullptr;  ///< the corrupted read
  std::vector<ExploitReport> exploits;
  AnalysisStats stats;
};

class VulnerabilityAnalyzer {
 public:
  enum class Mode {
    kDirected,      ///< Algorithm 1: walk the bug's call stack (default)
    kWholeProgram,  ///< ablation: ignore call stacks, walk every caller
  };

  struct Options {
    Mode mode = Mode::kDirected;
    std::size_t max_call_depth = 12;
    /// §9 comparison knobs. ConSeq-style consequence analysis stays within
    /// the bug's function (`interprocedural = false`); Livshits-style taint
    /// tracking ignores control dependences (`track_control_flow = false`).
    /// The paper argues both are insufficient for concurrency attacks —
    /// bench/ext_related_work quantifies it.
    bool interprocedural = true;
    bool track_control_flow = true;
    /// Per-callsite indirect-call targets resolved by the points-to
    /// analysis. When set, the walk descends through kCallPtr dispatches
    /// (and whole-program mode follows indirect callers) instead of
    /// dropping corruption at the dispatch — the pre-analysis blind spot.
    /// Not owned; must outlive the analyzer. nullptr = callptr opaque.
    const ir::IndirectCallMap* resolved_indirect = nullptr;
    /// Module-wide value-flow graph (--vuln-flow on/audit). When set, the
    /// walk additionally follows store→load may-alias edges: a corrupted
    /// value written to memory corrupts every reader that may alias it,
    /// and the walk restarts from readers in functions the register-only
    /// walk never reaches. nullptr (default) = the original register-only
    /// Algorithm 1 behavior, byte-identical to pre-flow output.
    /// Not owned; must outlive the analyzer.
    const analysis::ValueFlowGraph* value_flow = nullptr;
  };

  explicit VulnerabilityAnalyzer(const ir::Module& module)
      : VulnerabilityAnalyzer(module, Options{}) {}
  VulnerabilityAnalyzer(const ir::Module& module, Options options);

  /// Analyzes one race report: starts from its read side (or supplemental
  /// read for write-write pairs, §6.3). Empty result if the report carries
  /// no read.
  VulnAnalysis analyze(const race::RaceReport& report) const;

  /// Core entry: explicit corrupted read + its call stack (outermost first).
  VulnAnalysis analyze_from(const ir::Instruction* corrupted_read,
                            const interp::CallStack& stack) const;

 private:
  const ControlDependence& control_dep(const ir::Function* function) const;

  const ir::Module* module_;
  Options options_;
  mutable std::unordered_map<const ir::Function*,
                             std::unique_ptr<ControlDependence>>
      cd_cache_;
};

}  // namespace owl::vuln
