#include "analysis/value_flow.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "ir/function.hpp"
#include "ir/instruction.hpp"
#include "support/strings.hpp"

namespace owl::analysis {

namespace {

/// Call targets with bodies the binding edges descend into. kThreadCreate
/// binds its single argument like a one-parameter call; kCallPtr uses the
/// points-to resolved map (empty when unresolved — the conservative gap is
/// reported through PointsTo::indirect_unresolved, not silently bridged).
std::vector<const ir::Function*> internal_targets(
    const ir::Instruction& instr, const ir::IndirectCallMap& resolved) {
  std::vector<const ir::Function*> targets;
  if (instr.opcode() == ir::Opcode::kCall ||
      instr.opcode() == ir::Opcode::kThreadCreate) {
    if (instr.callee() != nullptr && instr.callee()->has_body()) {
      targets.push_back(instr.callee());
    }
  } else if (instr.opcode() == ir::Opcode::kCallPtr) {
    const auto it = resolved.find(&instr);
    if (it != resolved.end()) {
      for (const ir::Function* f : it->second) {
        if (f != nullptr && f->has_body()) targets.push_back(f);
      }
    }
  }
  return targets;
}

/// Actual-argument operands of a call-like site, in formal order.
std::vector<const ir::Value*> actual_args(const ir::Instruction& instr) {
  std::vector<const ir::Value*> args;
  switch (instr.opcode()) {
    case ir::Opcode::kCall:
    case ir::Opcode::kThreadCreate:
      for (const ir::Value* op : instr.operands()) args.push_back(op);
      break;
    case ir::Opcode::kCallPtr:
      for (std::size_t i = 1; i < instr.operand_count(); ++i) {
        args.push_back(instr.operand(i));
      }
      break;
    default:
      break;
  }
  return args;
}

}  // namespace

const std::vector<const ir::Instruction*> ValueFlowGraph::kEmptyList;

ValueFlowGraph::ValueFlowGraph(const ir::Module& module, const PointsTo& pt,
                               const ir::IndirectCallMap& resolved) {
  add_nodes(module);
  add_def_use_edges();
  add_call_edges(resolved);
  add_mem_edges(pt);
  // Successor lists accumulate in discovery order; canonicalize to node
  // order so consumers and the golden dump never depend on it.
  auto sort_adjacency =
      [this](std::unordered_map<const ir::Instruction*,
                                std::vector<const ir::Instruction*>>& adj) {
        for (auto& [def, succs] : adj) {
          (void)def;
          std::sort(succs.begin(), succs.end(),
                    [this](const ir::Instruction* a, const ir::Instruction* b) {
                      return index_.at(a) < index_.at(b);
                    });
        }
      };
  sort_adjacency(uses_);
  sort_adjacency(mem_succ_);
  stats_.nodes = nodes_.size();
}

void ValueFlowGraph::add_nodes(const ir::Module& module) {
  for (const auto& function : module.functions()) {
    for (const auto& block : function->blocks()) {
      for (const auto& instr : block->instructions()) {
        index_.emplace(instr.get(), nodes_.size());
        nodes_.push_back(instr.get());
      }
    }
  }
}

void ValueFlowGraph::add_use(const ir::Instruction* def,
                             const ir::Instruction* use, bool call_edge) {
  std::vector<const ir::Instruction*>& succs = uses_[def];
  if (std::find(succs.begin(), succs.end(), use) != succs.end()) return;
  succs.push_back(use);
  if (call_edge) {
    ++stats_.call_edges;
  } else {
    ++stats_.def_use_edges;
  }
}

void ValueFlowGraph::add_def_use_edges() {
  for (const ir::Instruction* instr : nodes_) {
    auto wire = [&](const ir::Value* op) {
      if (op != nullptr && op->kind() == ir::ValueKind::kInstruction) {
        add_use(static_cast<const ir::Instruction*>(op), instr,
                /*call_edge=*/false);
      }
    };
    for (const ir::Value* op : instr->operands()) wire(op);
    for (const ir::Value* incoming : instr->phi_values()) wire(incoming);
  }
}

void ValueFlowGraph::add_call_edges(const ir::IndirectCallMap& resolved) {
  // Uses of each formal argument, gathered once per function on demand.
  std::unordered_map<const ir::Value*, std::vector<const ir::Instruction*>>
      arg_uses;
  std::unordered_set<const ir::Function*> scanned;
  auto scan_function = [&](const ir::Function* f) {
    if (!scanned.insert(f).second) return;
    for (const auto& block : f->blocks()) {
      for (const auto& instr : block->instructions()) {
        auto record = [&](const ir::Value* op) {
          if (op != nullptr && op->kind() == ir::ValueKind::kArgument) {
            arg_uses[op].push_back(instr.get());
          }
        };
        for (const ir::Value* op : instr->operands()) record(op);
        for (const ir::Value* incoming : instr->phi_values()) record(incoming);
      }
    }
  };

  for (const ir::Instruction* site : nodes_) {
    if (!site->is_call() && site->opcode() != ir::Opcode::kThreadCreate) {
      continue;
    }
    const std::vector<const ir::Value*> args = actual_args(*site);
    for (const ir::Function* callee : internal_targets(*site, resolved)) {
      scan_function(callee);
      // Actual argument i flows to every use of formal i in the callee.
      const std::size_t bound =
          std::min(args.size(), callee->arguments().size());
      for (std::size_t i = 0; i < bound; ++i) {
        if (args[i]->kind() != ir::ValueKind::kInstruction) continue;
        const auto it = arg_uses.find(callee->argument(i));
        if (it == arg_uses.end()) continue;
        for (const ir::Instruction* use : it->second) {
          add_use(static_cast<const ir::Instruction*>(args[i]), use,
                  /*call_edge=*/true);
        }
      }
      // A kRet operand flows back into the call-site result. Thread
      // creation returns a tid, never the entry's value.
      if (site->opcode() == ir::Opcode::kThreadCreate) continue;
      for (const auto& block : callee->blocks()) {
        for (const auto& instr : block->instructions()) {
          if (instr->opcode() != ir::Opcode::kRet) continue;
          if (instr->operand_count() == 0) continue;
          const ir::Value* ret = instr->operand(0);
          if (ret->kind() == ir::ValueKind::kInstruction) {
            add_use(static_cast<const ir::Instruction*>(ret), site,
                    /*call_edge=*/true);
          }
        }
      }
    }
  }
}

void ValueFlowGraph::add_mem_edges(const PointsTo& pt) {
  // Per abstract object: writers and readers in node order, then the
  // cross product — may-alias is exactly "points-to sets intersect".
  std::map<PointsTo::ObjectId, std::vector<const ir::Instruction*>> writers;
  std::map<PointsTo::ObjectId, std::vector<const ir::Instruction*>> readers;
  for (const ir::Instruction* instr : nodes_) {
    // The accesses the interpreter reports, so mem edges pair exactly what
    // runtime evidence can pair.
    if (const ir::Value* ptr = instr->accessed_address(/*write=*/true)) {
      if (pt.is_unknown(ptr)) unknown_writes_.insert(instr);
      for (const PointsTo::ObjectId o : pt.points_to(ptr)) {
        writers[o].push_back(instr);
      }
    }
    if (const ir::Value* ptr = instr->accessed_address(/*write=*/false)) {
      if (pt.is_unknown(ptr)) unknown_reads_.insert(instr);
      for (const PointsTo::ObjectId o : pt.points_to(ptr)) {
        readers[o].push_back(instr);
      }
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const auto& [object, write_list] : writers) {
    const auto it = readers.find(object);
    if (it == readers.end()) continue;
    for (const ir::Instruction* writer : write_list) {
      for (const ir::Instruction* reader : it->second) {
        if (writer == reader) continue;
        if (!seen.insert({index_.at(writer), index_.at(reader)}).second) {
          continue;
        }
        mem_succ_[writer].push_back(reader);
        ++stats_.mem_edges;
      }
    }
  }
}

bool ValueFlowGraph::node_index(const ir::Instruction* instr,
                                std::size_t& out) const {
  const auto it = index_.find(instr);
  if (it == index_.end()) return false;
  out = it->second;
  return true;
}

const std::vector<const ir::Instruction*>& ValueFlowGraph::uses(
    const ir::Instruction* def) const {
  const auto it = uses_.find(def);
  return it == uses_.end() ? kEmptyList : it->second;
}

const std::vector<const ir::Instruction*>& ValueFlowGraph::mem_successors(
    const ir::Instruction* writer) const {
  const auto it = mem_succ_.find(writer);
  return it == mem_succ_.end() ? kEmptyList : it->second;
}

bool ValueFlowGraph::has_mem_edge(const ir::Instruction* writer,
                                  const ir::Instruction* reader) const {
  const std::vector<const ir::Instruction*>& succs = mem_successors(writer);
  return std::find(succs.begin(), succs.end(), reader) != succs.end();
}

std::string ValueFlowGraph::serialize() const {
  std::string out = str_format(
      "valueflow-v1 nodes=%zu defuse=%zu call=%zu mem=%zu\n", stats_.nodes,
      stats_.def_use_edges, stats_.call_edges, stats_.mem_edges);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ir::Instruction* instr = nodes_[i];
    out += str_format(
        "node %zu @%s/%s/%zu %s", i, instr->function()->name().c_str(),
        instr->parent()->label().c_str(), instr->parent()->index_of(instr),
        std::string(ir::opcode_name(instr->opcode())).c_str());
    if (!instr->name().empty()) out += " %" + instr->name();
    out += "\n";
  }
  auto dump_edges = [&](const char* tag, const auto& adjacency) {
    for (const ir::Instruction* def : nodes_) {
      const auto it = adjacency.find(def);
      if (it == adjacency.end()) continue;
      for (const ir::Instruction* succ : it->second) {
        out += str_format("%s %zu -> %zu\n", tag, index_.at(def),
                          index_.at(succ));
      }
    }
  };
  dump_edges("use", uses_);
  dump_edges("mem", mem_succ_);
  for (const ir::Instruction* instr : nodes_) {
    if (unknown_writes_.count(instr) != 0) {
      out += str_format("unknown-write %zu\n", index_.at(instr));
    }
  }
  for (const ir::Instruction* instr : nodes_) {
    if (unknown_reads_.count(instr) != 0) {
      out += str_format("unknown-read %zu\n", index_.at(instr));
    }
  }
  return out;
}

std::vector<InterprocLockEdge> interprocedural_lock_edges(
    const ir::Module& module, const LockFacts& facts,
    const ir::IndirectCallMap& resolved) {
  const ir::CallGraph cg(module, resolved);
  std::map<std::pair<PointsTo::ObjectId, PointsTo::ObjectId>,
           InterprocLockEdge>
      edges;  // first witness in module order wins
  for (const auto& function : module.functions()) {
    for (const auto& block : function->blocks()) {
      // Straight-line must-held set from the block head: locks acquired in
      // a predecessor block are missed (fewer edges — the safe direction),
      // never falsely claimed.
      std::set<PointsTo::ObjectId> held;
      for (const auto& instr : block->instructions()) {
        PointsTo::ObjectId token = 0;
        if (instr->opcode() == ir::Opcode::kLock) {
          if (facts.lock_token(instr->operand(0), token)) held.insert(token);
          continue;
        }
        if (instr->opcode() == ir::Opcode::kUnlock) {
          if (facts.lock_token(instr->operand(0), token)) held.erase(token);
          continue;
        }
        if (!instr->is_call()) continue;
        if (!held.empty()) {
          std::vector<const ir::Function*> roots;
          if (instr->opcode() == ir::Opcode::kCall) {
            if (instr->callee() != nullptr && instr->callee()->has_body()) {
              roots.push_back(instr->callee());
            }
          } else {
            const auto it = resolved.find(instr.get());
            if (it != resolved.end()) {
              for (const ir::Function* f : it->second) {
                if (f != nullptr && f->has_body()) roots.push_back(f);
              }
            }
          }
          if (!roots.empty()) {
            std::vector<ir::Function*> mutable_roots;
            for (const ir::Function* f : roots) {
              mutable_roots.push_back(const_cast<ir::Function*>(f));
            }
            const std::unordered_set<ir::Function*> reach =
                cg.reachable_from(mutable_roots);
            // lock_sites() is already in module order, which keeps the
            // witness choice deterministic despite the unordered reach set.
            for (const LockFacts::LockSite& site : facts.lock_sites()) {
              if (!site.is_acquire) continue;
              if (reach.count(const_cast<ir::Function*>(site.function)) ==
                  0) {
                continue;
              }
              if (!facts.well_formed(site.token)) continue;
              for (const PointsTo::ObjectId h : held) {
                if (h == site.token || !facts.well_formed(h)) continue;
                InterprocLockEdge edge;
                edge.held = h;
                edge.acquired = site.token;
                edge.acquire_site = site.instr;
                edge.caller = function.get();
                edges.try_emplace({h, site.token}, edge);
              }
            }
          }
        }
        // Drop exactly the tokens the callee may release — or everything,
        // when it may release a mutex the analysis cannot identify.
        LockFacts::LockSet released;
        if (!facts.call_released_tokens(*instr, released)) {
          held.clear();
        } else {
          for (const PointsTo::ObjectId t : released) held.erase(t);
        }
      }
    }
  }
  std::vector<InterprocLockEdge> out;
  out.reserve(edges.size());
  for (const auto& [key, edge] : edges) {
    (void)key;
    out.push_back(edge);
  }
  return out;
}

}  // namespace owl::analysis
