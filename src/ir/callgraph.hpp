// Static call graph over direct calls, thread-create edges and — when the
// caller supplies points-to resolution results — indirect calls.
//
// Used by the verifier (recursion diagnostics), the noise/LoC statistics,
// and Algorithm 1's scalability accounting (functions reachable from a bug
// call stack vs the whole module).
//
// The one-argument constructor sees only kCall/kThreadCreate edges; kCallPtr
// sites are invisible to it (the historical blind spot). The two-argument
// constructor additionally takes an IndirectCallMap — per-callptr resolved
// targets, produced by analysis::PointsTo — and folds those edges into
// callees/callers/call_sites, so reachable_from and is_recursive see through
// function-pointer dispatch.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/module.hpp"

namespace owl::ir {

/// Resolved targets of each kCallPtr site, in module declaration order.
/// Produced by analysis::PointsTo; typedef'd here so ir/ and vuln/ consumers
/// need no dependency on the analysis layer.
using IndirectCallMap =
    std::unordered_map<const Instruction*, std::vector<Function*>>;

class CallGraph {
 public:
  explicit CallGraph(const Module& module);
  /// Direct edges plus the supplied resolved indirect-call edges.
  CallGraph(const Module& module, const IndirectCallMap& indirect);

  /// Direct callees (kCall) plus thread entries (kThreadCreate), plus
  /// resolved indirect callees when built with an IndirectCallMap.
  const std::unordered_set<Function*>& callees(const Function* f) const;
  const std::unordered_set<Function*>& callers(const Function* f) const;

  /// All call sites targeting `f`.
  const std::vector<Instruction*>& call_sites(const Function* f) const;

  /// Functions reachable from `roots` following callee edges (inclusive).
  std::unordered_set<Function*> reachable_from(
      const std::vector<Function*>& roots) const;

  /// True if `f` can (transitively) reach itself.
  bool is_recursive(const Function* f) const;

 private:
  std::unordered_map<const Function*, std::unordered_set<Function*>> callees_;
  std::unordered_map<const Function*, std::unordered_set<Function*>> callers_;
  std::unordered_map<const Function*, std::vector<Instruction*>> sites_;
  std::unordered_set<Function*> empty_set_;
  std::vector<Instruction*> empty_sites_;
};

}  // namespace owl::ir
