// Module-wide static value-flow graph over MiniIR (DESIGN.md §14).
//
// Algorithm 1's original transcription walks propagation "through virtual
// registers only (no pointer analysis)" — corruption that transits memory
// (store the racy value, load it elsewhere, possibly in another function)
// was invisible to the static walk. This graph closes that blind spot with
// three deterministic edge families over one per-module node ordering
// (function, block, instruction declaration order):
//
//  * def→use: an instruction result feeding an operand or phi incoming of
//    another instruction in the same function;
//  * call/return binding: an actual argument feeding every use of the
//    matching formal in each callee (direct calls, thread entries, and
//    kCallPtr sites through the points-to resolved IndirectCallMap), and a
//    callee's kRet operand feeding the call-site result;
//  * store→load: a memory write reaching a memory read whenever the
//    points-to sets of the written and read pointers intersect (may-alias).
//    Writers are kStore / kAtomicRMWAdd / kStrCpy / kMemCopy destinations;
//    readers are kLoad / kStrCpy / kMemCopy sources — exactly the opcodes
//    whose interpreter steps emit Observer::Access events, so audit mode
//    can replay runtime store→load evidence against this edge set.
//
// Unknown pointers (PointsTo::is_unknown) cannot be given precise edges;
// such writers/readers are flagged instead and `covers()` treats them as
// reaching everything — the conservative direction for the audit contract
// ("every runtime dependence is statically explained").
//
// The graph also exports inter-procedural lock-order facts for the
// deadlock checker: a call executed while a mutex is must-held reaches
// every acquire in its transitive callees (see interprocedural_lock_edges).
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/lock_facts.hpp"
#include "analysis/points_to.hpp"
#include "ir/callgraph.hpp"
#include "ir/module.hpp"
#include "support/audit_mode.hpp"

namespace owl::analysis {

/// Pipeline-facing mode switch for memory-aware value flow
/// (support/audit_mode.hpp): kOn extends Algorithm 1's worklist across
/// store→load edges; kAudit produces kOn's reports and additionally
/// cross-checks every runtime-observed store→load dependence against the
/// static edge set (a runtime dependence the graph lacks is a soundness
/// violation).
using ValueFlowMode = support::AuditMode;

class ValueFlowGraph {
 public:
  ValueFlowGraph(const ir::Module& module, const PointsTo& pt,
                 const ir::IndirectCallMap& resolved);

  /// Stable node index of an instruction (module declaration order), or
  /// false for instructions outside the module this graph was built from.
  bool node_index(const ir::Instruction* instr, std::size_t& out) const;
  const ir::Instruction* node(std::size_t index) const {
    return nodes_.at(index);
  }
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Register successors of `def`: def→use plus call/return binding edges,
  /// sorted by node index, deduplicated.
  const std::vector<const ir::Instruction*>& uses(
      const ir::Instruction* def) const;

  /// Memory readers a write by `writer` may reach (may-alias), sorted by
  /// node index.
  const std::vector<const ir::Instruction*>& mem_successors(
      const ir::Instruction* writer) const;

  bool has_mem_edge(const ir::Instruction* writer,
                    const ir::Instruction* reader) const;
  /// Writer through a pointer the points-to analysis cannot bound.
  bool writes_unknown(const ir::Instruction* writer) const {
    return unknown_writes_.count(writer) != 0;
  }
  /// Reader through a pointer the points-to analysis cannot bound.
  bool reads_unknown(const ir::Instruction* reader) const {
    return unknown_reads_.count(reader) != 0;
  }
  /// Audit contract: a runtime store→load dependence is statically
  /// explained when a precise mem edge exists or either side is unknown.
  bool covers(const ir::Instruction* writer,
              const ir::Instruction* reader) const {
    return has_mem_edge(writer, reader) || writes_unknown(writer) ||
           reads_unknown(reader);
  }

  struct Stats {
    std::size_t nodes = 0;
    std::size_t def_use_edges = 0;  ///< same-function register edges
    std::size_t call_edges = 0;     ///< arg/return binding edges
    std::size_t mem_edges = 0;      ///< store→load may-alias edges
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Deterministic text snapshot — nodes then edges, all in node-index
  /// order (golden dumps under tests/golden/value_flow/).
  std::string serialize() const;

 private:
  void add_nodes(const ir::Module& module);
  void add_def_use_edges();
  void add_call_edges(const ir::IndirectCallMap& resolved);
  void add_mem_edges(const PointsTo& pt);
  void add_use(const ir::Instruction* def, const ir::Instruction* use,
               bool call_edge);

  std::vector<const ir::Instruction*> nodes_;
  std::unordered_map<const ir::Instruction*, std::size_t> index_;
  std::unordered_map<const ir::Instruction*,
                     std::vector<const ir::Instruction*>>
      uses_;
  std::unordered_map<const ir::Instruction*,
                     std::vector<const ir::Instruction*>>
      mem_succ_;
  std::unordered_set<const ir::Instruction*> unknown_writes_;
  std::unordered_set<const ir::Instruction*> unknown_reads_;
  Stats stats_;

  static const std::vector<const ir::Instruction*> kEmptyList;
};

/// One inter-procedural lock-order fact: a call site executed while `held`
/// is must-held (straight-line facts within the call's block — claiming
/// fewer held locks is the safe direction) transitively reaches an acquire
/// of `acquired` in a callee. The deadlock checker folds these into its
/// lock-order graph; `caller` carries the thread context for the MHP
/// filter, `acquire_site` the witness location in the callee.
struct InterprocLockEdge {
  PointsTo::ObjectId held = 0;
  PointsTo::ObjectId acquired = 0;
  const ir::Instruction* acquire_site = nullptr;
  const ir::Function* caller = nullptr;
};

/// Edges in module declaration order, first witness per (held, acquired)
/// pair. Thread-create sites contribute nothing: a spawned thread does not
/// inherit its spawner's locks.
std::vector<InterprocLockEdge> interprocedural_lock_edges(
    const ir::Module& module, const LockFacts& facts,
    const ir::IndirectCallMap& resolved);

}  // namespace owl::analysis
