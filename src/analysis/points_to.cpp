#include "analysis/points_to.hpp"

#include <algorithm>
#include <cassert>

#include "ir/instruction.hpp"

namespace owl::analysis {

namespace {

constexpr std::int64_t kLoInf = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kHiInf = std::numeric_limits<std::int64_t>::max();
constexpr std::uint32_t kNoNode = static_cast<std::uint32_t>(-1);

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  if (a == kLoInf || b == kLoInf) return kLoInf;
  if (a == kHiInf || b == kHiInf) return kHiInf;
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) return a < 0 ? kLoInf : kHiInf;
  return r;
}

}  // namespace

const std::vector<PointsTo::ObjectId> PointsTo::kEmptySet;

PointsTo::PointsTo(const ir::Module& module) : module_(module) {
  enumerate_objects();
  seed_constraints();
  solve();
  stats_.nodes = nodes_.size();
  stats_.objects = objects_.size();
}

// ---------------------------------------------------------------------------
// Graph construction
// ---------------------------------------------------------------------------

PointsTo::ObjectId PointsTo::add_object(ObjectKind kind, const ir::Value* site,
                                        ir::Function* fn) {
  const auto id = static_cast<ObjectId>(objects_.size());
  objects_.push_back({kind, site});
  object_functions_.push_back(fn);
  object_ids_.emplace(site, id);
  return id;
}

void PointsTo::enumerate_objects() {
  // Deterministic object numbering: globals, then functions, then
  // allocation sites in function/block/instruction order.
  for (const auto& g : module_.globals()) {
    add_object(ObjectKind::kGlobal, g.get());
  }
  for (const auto& f : module_.functions()) {
    add_object(ObjectKind::kFunction, f.get(), f.get());
  }
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() == ir::Opcode::kAlloca) {
          add_object(ObjectKind::kStack, instr.get());
        } else if (instr->opcode() == ir::Opcode::kMalloc) {
          add_object(ObjectKind::kHeap, instr.get());
        }
      }
    }
  }
  // Node ids [0, objects) are the per-object content nodes.
  nodes_.resize(objects_.size());
  parent_.resize(objects_.size());
  for (NodeId i = 0; i < parent_.size(); ++i) parent_[i] = i;
}

PointsTo::NodeId PointsTo::node_of(const ir::Value* v) {
  auto it = value_nodes_.find(v);
  if (it != value_nodes_.end()) return it->second;
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  parent_.push_back(id);
  value_nodes_.emplace(v, id);
  switch (v->kind()) {
    case ir::ValueKind::kGlobalVariable:
    case ir::ValueKind::kFunction:
      add_points_to(id, object_ids_.at(v));
      push_offset(id, 0, 0);  // address-of yields the object base
      break;
    case ir::ValueKind::kInstruction: {
      const auto* instr = static_cast<const ir::Instruction*>(v);
      if (instr->opcode() == ir::Opcode::kAlloca ||
          instr->opcode() == ir::Opcode::kMalloc) {
        add_points_to(id, object_ids_.at(v));
        push_offset(id, 0, 0);  // address-of yields the object base
      }
      break;
    }
    case ir::ValueKind::kConstant: {
      const auto value = static_cast<const ir::Constant*>(v)->value();
      // Literals large enough to name simulated memory are wild pointers.
      if (value < 0 || value >= kSafeConstantLimit) set_unknown(id);
      break;
    }
    case ir::ValueKind::kArgument:
      break;
  }
  return id;
}

PointsTo::NodeId PointsTo::lookup(const ir::Value* v) const {
  auto it = value_nodes_.find(v);
  return it != value_nodes_.end() ? it->second : kNoNode;
}

void PointsTo::seed_constraints() {
  // Pass A: collect return-value nodes so direct-call wiring (pass B) and
  // on-the-fly indirect wiring can connect rets regardless of layout order.
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() == ir::Opcode::kRet &&
            instr->operand_count() > 0) {
          return_nodes_[f.get()].push_back(node_of(instr->operand(0)));
        }
      }
    }
  }
  // Content of a global whose initializer could name memory is unknown.
  for (const auto& g : module_.globals()) {
    const std::int64_t init = g->initial_value();
    if (init < 0 || init >= kSafeConstantLimit) {
      set_unknown(find(content_node(object_ids_.at(g.get()))));
    }
  }
  // Pass B: per-instruction constraints.
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        seed_instruction(*instr);
      }
    }
  }
}

void PointsTo::seed_instruction(const ir::Instruction& instr) {
  using ir::Opcode;
  const Opcode op = instr.opcode();
  if (instr.info().scalar) {
    const NodeId result = node_of(&instr);
    for (const ir::Value* v : instr.operands()) {
      add_arith_edge(node_of(v), result);
    }
    return;
  }
  switch (op) {
    case Opcode::kAlloca:
    case Opcode::kMalloc:
      (void)node_of(&instr);  // seeds the address-of constraint
      break;
    case Opcode::kGep: {
      std::int64_t lo = kLoInf;
      std::int64_t hi = kHiInf;
      if (instr.operand_count() > 1 && instr.operand(1)->is_constant()) {
        lo = hi = static_cast<const ir::Constant*>(instr.operand(1))->value();
      }
      add_copy_edge(node_of(instr.operand(0)), node_of(&instr), lo, hi);
      break;
    }
    case Opcode::kPhi: {
      const NodeId result = node_of(&instr);
      for (const ir::Value* v : instr.phi_values()) {
        add_copy_edge(node_of(v), result);
      }
      break;
    }
    case Opcode::kLoad:
      add_load_user(node_of(instr.operand(0)), node_of(&instr));
      break;
    case Opcode::kStore:
      add_store_value(node_of(instr.operand(1)), node_of(instr.operand(0)));
      break;
    case Opcode::kAtomicRMWAdd: {
      const NodeId ptr = find(node_of(instr.operand(0)));
      const NodeId result = node_of(&instr);
      const NodeId delta = node_of(instr.operand(1));
      nodes_[ptr].rmw_users.emplace_back(result, delta);
      const auto pts = nodes_[ptr].pts;
      for (const ObjectId o : pts) {
        add_arith_edge(find(content_node(o)), result);
        add_arith_edge(find(content_node(o)), find(content_node(o)));
        add_arith_edge(delta, find(content_node(o)));
      }
      if (nodes_[find(ptr)].unknown) {
        unknown_store_ = true;
        set_unknown(result);
      }
      break;
    }
    case Opcode::kCall: {
      const ir::Function* callee = instr.callee();
      if (callee == nullptr) break;
      if (callee->is_internal() && callee->has_body()) {
        const std::size_t n =
            std::min(instr.operand_count(), callee->arguments().size());
        for (std::size_t i = 0; i < n; ++i) {
          add_copy_edge(node_of(instr.operand(i)),
                        node_of(callee->argument(i)));
        }
        auto rit = return_nodes_.find(callee);
        if (rit != return_nodes_.end()) {
          const NodeId result = node_of(&instr);
          for (const NodeId r : rit->second) add_copy_edge(r, result);
        }
      } else {
        // Opaque boundary: the result could be anything.
        set_unknown(find(node_of(&instr)));
      }
      break;
    }
    case Opcode::kCallPtr: {
      if (instr.operand_count() == 0) break;
      const NodeId target = find(node_of(instr.operand(0)));
      (void)node_of(&instr);
      nodes_[target].call_users.push_back(&instr);
      const auto pts = nodes_[target].pts;
      for (const ObjectId o : pts) {
        if (objects_[o].kind == ObjectKind::kFunction) {
          wire_indirect(&instr, o);
        } else {
          indirect_unresolved_.insert(&instr);
          set_unknown(find(node_of(&instr)));
        }
      }
      if (nodes_[find(target)].unknown) {
        indirect_unresolved_.insert(&instr);
        set_unknown(find(node_of(&instr)));
      }
      break;
    }
    case Opcode::kThreadCreate: {
      const ir::Function* entry = instr.callee();
      if (entry != nullptr && entry->has_body() &&
          !entry->arguments().empty() && instr.operand_count() > 0) {
        add_copy_edge(node_of(instr.operand(0)), node_of(entry->argument(0)));
      }
      break;
    }
    case Opcode::kInput:
      set_unknown(find(node_of(&instr)));
      break;
    case Opcode::kStrCpy:
    case Opcode::kMemCopy: {
      if (instr.operand_count() < 2) break;
      const auto index = static_cast<std::uint32_t>(copy_ops_.size());
      const NodeId dst = find(node_of(instr.operand(0)));
      const NodeId src = find(node_of(instr.operand(1)));
      copy_ops_.push_back({dst, src});
      nodes_[dst].copyop_users.push_back(index);
      if (src != dst) nodes_[src].copyop_users.push_back(index);
      process_copyop(index);
      break;
    }
    default:
      break;  // control flow, locks, annotations, env: no pointer effect
  }
}

void PointsTo::add_copy_edge(NodeId from, NodeId to, std::int64_t add_lo,
                             std::int64_t add_hi) {
  from = find(from);
  to = find(to);
  if (from == to && add_lo == 0 && add_hi == 0) return;
  if (add_lo == 0 && add_hi == 0) {
    // Dynamic edges (from complex constraints) are always zero-addend;
    // dedup them so re-processing stays cheap. Keys may go stale after
    // merges — a duplicate edge is harmless, just idempotent work.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(from) << 32) | to;
    if (!dyn_edge_seen_.insert(key).second) return;
  }
  nodes_[from].copy_out.push_back({to, add_lo, add_hi});
  ++stats_.copy_edges;
  edges_dirty_ = true;
  // Apply the source's current state through the new edge.
  const auto pts = nodes_[from].pts;
  for (const ObjectId o : pts) add_points_to(to, o);
  if (nodes_[find(from)].unknown) set_unknown(find(to));
  const OffsetRange off = nodes_[find(from)].off;
  if (off.lo <= off.hi) {
    push_offset(find(to), sat_add(off.lo, add_lo), sat_add(off.hi, add_hi));
  }
}

void PointsTo::add_arith_edge(NodeId from, NodeId to) {
  from = find(from);
  to = find(to);
  const std::uint64_t key =
      (1ULL << 63) | (static_cast<std::uint64_t>(from) << 31) | to;
  if (!dyn_edge_seen_.insert(key).second) return;
  nodes_[from].arith_out.push_back(to);
  if (nodes_[from].unknown || !nodes_[from].pts.empty()) {
    set_unknown(find(to));
  }
}

void PointsTo::add_load_user(NodeId ptr, NodeId result) {
  ptr = find(ptr);
  nodes_[ptr].load_users.push_back(result);
  const auto pts = nodes_[ptr].pts;
  for (const ObjectId o : pts) {
    add_copy_edge(content_node(o), result);
  }
  if (nodes_[find(ptr)].unknown) set_unknown(find(result));
}

void PointsTo::add_store_value(NodeId ptr, NodeId value) {
  ptr = find(ptr);
  nodes_[ptr].store_values.push_back(value);
  const auto pts = nodes_[ptr].pts;
  for (const ObjectId o : pts) {
    add_copy_edge(value, content_node(o));
  }
  if (nodes_[find(ptr)].unknown) unknown_store_ = true;
}

void PointsTo::add_points_to(NodeId n, ObjectId o) {
  n = find(n);
  auto& pts = nodes_[n].pts;
  auto it = std::lower_bound(pts.begin(), pts.end(), o);
  if (it != pts.end() && *it == o) return;
  pts.insert(it, o);
  nodes_[n].delta.push_back(o);
  ++stats_.propagations;
  schedule(n);
}

void PointsTo::set_unknown(NodeId n) {
  n = find(n);
  if (nodes_[n].unknown) return;
  nodes_[n].unknown = true;
  nodes_[n].unknown_handled = false;
  schedule(n);
}

void PointsTo::push_offset(NodeId to, std::int64_t lo, std::int64_t hi) {
  if (lo > hi) return;  // empty source range: no pointer has flowed yet
  to = find(to);
  Node& node = nodes_[to];
  if (node.off.lo > node.off.hi) {
    // First range to arrive lands exactly; widening only kicks in on growth.
    node.off = {lo, hi};
    schedule(to);
    return;
  }
  bool widened = false;
  if (lo < node.off.lo) {
    node.off.lo = (++node.off_bumps > 8) ? kLoInf : lo;
    widened = true;
  }
  if (hi > node.off.hi) {
    node.off.hi = (++node.off_bumps > 8) ? kHiInf : hi;
    widened = true;
  }
  if (widened) schedule(to);
}

// ---------------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------------

PointsTo::NodeId PointsTo::find(NodeId n) const {
  while (parent_[n] != n) {
    parent_[n] = parent_[parent_[n]];
    n = parent_[n];
  }
  return n;
}

void PointsTo::schedule(NodeId n) {
  if (nodes_[n].in_worklist) return;
  nodes_[n].in_worklist = true;
  worklist_.push_back(n);
}

void PointsTo::solve() {
  drain();
  // Dynamic edges can close new copy cycles; collapse and re-drain until
  // neither new edges nor new merges appear. Terminates: merges strictly
  // shrink the node count and propagation is monotone.
  while (edges_dirty_) {
    edges_dirty_ = false;
    if (collapse_cycles() == 0) break;
    drain();
  }
}

void PointsTo::drain() {
  while (!worklist_.empty()) {
    const NodeId n = worklist_.back();
    worklist_.pop_back();
    nodes_[n].in_worklist = false;
    process(find(n));
  }
}

void PointsTo::process(NodeId n) {
  if (nodes_[n].unknown && !nodes_[n].unknown_handled) process_unknown(n);

  // Push offset bounds along copy edges (monotone; widened at the sink).
  {
    const auto edges = nodes_[n].copy_out;
    const OffsetRange off = nodes_[n].off;
    if (off.lo <= off.hi) {
      for (const Edge& e : edges) {
        const NodeId dst = find(e.dst);
        if (dst == n && e.add_lo == 0 && e.add_hi == 0) continue;
        push_offset(dst, sat_add(off.lo, e.add_lo), sat_add(off.hi, e.add_hi));
      }
    }
  }

  std::vector<ObjectId> delta;
  delta.swap(nodes_[n].delta);
  if (!delta.empty()) {
    // Newly pointed-to objects flow to copy targets and complex users.
    // Snapshot the user lists: wiring can grow nodes_ (invalidating
    // references) and merge-free growth of these lists is re-applied at
    // registration time anyway.
    const auto edges = nodes_[n].copy_out;
    const auto loads = nodes_[n].load_users;
    const auto stores = nodes_[n].store_values;
    const auto rmws = nodes_[n].rmw_users;
    const auto calls = nodes_[n].call_users;
    const auto ariths = nodes_[n].arith_out;
    for (const ObjectId o : delta) {
      for (const Edge& e : edges) add_points_to(e.dst, o);
      for (const NodeId r : loads) add_copy_edge(content_node(o), r);
      for (const NodeId v : stores) add_copy_edge(v, content_node(o));
      for (const auto& [result, rmw_delta] : rmws) {
        add_arith_edge(content_node(o), result);
        add_arith_edge(content_node(o), content_node(o));
        add_arith_edge(rmw_delta, content_node(o));
      }
      for (const ir::Instruction* callptr : calls) {
        if (objects_[o].kind == ObjectKind::kFunction) {
          wire_indirect(callptr, o);
        } else {
          indirect_unresolved_.insert(callptr);
          set_unknown(find(node_of(callptr)));
        }
      }
    }
    // A pointer-bearing value makes every arithmetic consumer unknown.
    for (const NodeId t : ariths) set_unknown(find(t));
  }

  const auto copyops = nodes_[n].copyop_users;
  for (const std::uint32_t index : copyops) process_copyop(index);
}

void PointsTo::process_unknown(NodeId n) {
  nodes_[n].unknown_handled = true;
  const auto edges = nodes_[n].copy_out;
  const auto ariths = nodes_[n].arith_out;
  const auto loads = nodes_[n].load_users;
  const auto rmws = nodes_[n].rmw_users;
  const auto calls = nodes_[n].call_users;
  const auto copyops = nodes_[n].copyop_users;
  for (const Edge& e : edges) set_unknown(find(e.dst));
  for (const NodeId t : ariths) set_unknown(find(t));
  for (const NodeId r : loads) set_unknown(find(r));
  if (!nodes_[n].store_values.empty()) unknown_store_ = true;
  for (const auto& [result, rmw_delta] : rmws) {
    (void)rmw_delta;
    unknown_store_ = true;
    set_unknown(find(result));
  }
  for (const ir::Instruction* callptr : calls) {
    indirect_unresolved_.insert(callptr);
    set_unknown(find(node_of(callptr)));
  }
  for (const std::uint32_t index : copyops) process_copyop(index);
}

void PointsTo::process_copyop(std::uint32_t index) {
  const CopyOp op = copy_ops_[index];
  const NodeId dst = find(op.dst);
  const NodeId src = find(op.src);
  if (nodes_[dst].unknown) unknown_store_ = true;
  const auto dst_pts = nodes_[dst].pts;
  const auto src_pts = nodes_[src].pts;
  const bool src_unknown = nodes_[src].unknown;
  for (const ObjectId od : dst_pts) {
    if (src_unknown) set_unknown(find(content_node(od)));
    for (const ObjectId os : src_pts) {
      add_copy_edge(content_node(os), content_node(od));
    }
  }
}

void PointsTo::wire_indirect(const ir::Instruction* callptr,
                             ObjectId fn_object) {
  auto& targets = indirect_targets_[callptr];
  auto it = std::lower_bound(targets.begin(), targets.end(), fn_object);
  if (it != targets.end() && *it == fn_object) return;
  targets.insert(it, fn_object);
  ir::Function* callee = object_functions_[fn_object];
  if (callee == nullptr) return;
  if (callee->is_internal() && callee->has_body()) {
    // Operand 0 is the target; operand i+1 binds to argument i.
    const std::size_t n = std::min(
        callptr->operand_count() > 0 ? callptr->operand_count() - 1 : 0,
        callee->arguments().size());
    for (std::size_t i = 0; i < n; ++i) {
      add_copy_edge(node_of(callptr->operand(i + 1)),
                    node_of(callee->argument(i)));
    }
    auto rit = return_nodes_.find(callee);
    if (rit != return_nodes_.end()) {
      const NodeId result = node_of(callptr);
      for (const NodeId r : rit->second) add_copy_edge(r, result);
    }
  } else {
    // External target: opaque result, like a direct external call.
    set_unknown(find(node_of(callptr)));
  }
}

std::size_t PointsTo::collapse_cycles() {
  // Iterative Tarjan over the copy-edge graph of representatives. SCCs are
  // collected first and merged afterwards so node ids stay stable during
  // the walk. Cycles through nonzero-addend (gep) edges also collapse —
  // their member sets are equal by mutual inclusion — and the surviving
  // self-edge keeps driving the offset bound to saturation, which is
  // exactly right for a gep executed in a loop.
  const std::size_t count = nodes_.size();
  std::vector<std::uint32_t> index(count, 0), low(count, 0);
  std::vector<char> on_stack(count, 0);
  std::vector<NodeId> stack;
  std::vector<std::vector<NodeId>> sccs;
  std::uint32_t next_index = 1;

  struct Frame {
    NodeId node;
    std::size_t edge = 0;
  };
  std::vector<Frame> frames;

  for (NodeId root = 0; root < count; ++root) {
    if (find(root) != root || index[root] != 0) continue;
    frames.push_back({root});
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const NodeId n = fr.node;
      if (fr.edge == 0) {
        index[n] = low[n] = next_index++;
        stack.push_back(n);
        on_stack[n] = 1;
      }
      bool descended = false;
      while (fr.edge < nodes_[n].copy_out.size()) {
        const NodeId m = find(nodes_[n].copy_out[fr.edge].dst);
        ++fr.edge;
        if (m == n) continue;
        if (index[m] == 0) {
          frames.push_back({m});
          descended = true;
          break;
        }
        if (on_stack[m]) low[n] = std::min(low[n], index[m]);
      }
      if (descended) continue;
      if (low[n] == index[n]) {
        std::vector<NodeId> scc;
        while (true) {
          const NodeId m = stack.back();
          stack.pop_back();
          on_stack[m] = 0;
          scc.push_back(m);
          if (m == n) break;
        }
        if (scc.size() > 1) sccs.push_back(std::move(scc));
      }
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] =
            std::min(low[frames.back().node], low[n]);
      }
    }
  }

  std::size_t merges = 0;
  for (auto& scc : sccs) {
    const NodeId rep = *std::min_element(scc.begin(), scc.end());
    for (const NodeId m : scc) {
      if (m == rep) continue;
      merge(rep, m);
      ++merges;
    }
  }
  stats_.scc_merges += merges;
  return merges;
}

void PointsTo::merge(NodeId into, NodeId from) {
  assert(find(into) == into && find(from) == from && into != from);
  parent_[from] = into;
  Node& a = nodes_[into];
  Node& b = nodes_[from];
  // Union the points-to sets; schedule a full re-push so every user on the
  // merged lists sees every object (redundant pushes are idempotent).
  std::vector<ObjectId> merged;
  merged.reserve(a.pts.size() + b.pts.size());
  std::set_union(a.pts.begin(), a.pts.end(), b.pts.begin(), b.pts.end(),
                 std::back_inserter(merged));
  a.pts = std::move(merged);
  a.delta = a.pts;
  auto move_into = [](auto& dst, auto& src) {
    dst.insert(dst.end(), src.begin(), src.end());
    src.clear();
    src.shrink_to_fit();
  };
  move_into(a.copy_out, b.copy_out);
  move_into(a.arith_out, b.arith_out);
  move_into(a.load_users, b.load_users);
  move_into(a.store_values, b.store_values);
  move_into(a.rmw_users, b.rmw_users);
  move_into(a.call_users, b.call_users);
  move_into(a.copyop_users, b.copyop_users);
  a.off.lo = std::min(a.off.lo, b.off.lo);
  a.off.hi = std::max(a.off.hi, b.off.hi);
  a.off_bumps = std::max(a.off_bumps, b.off_bumps);
  if (b.unknown) a.unknown = true;
  if (a.unknown) a.unknown_handled = false;
  b.pts.clear();
  b.delta.clear();
  schedule(into);
}

// ---------------------------------------------------------------------------
// Public queries
// ---------------------------------------------------------------------------

const std::vector<PointsTo::ObjectId>& PointsTo::points_to(
    const ir::Value* v) const {
  const NodeId n = lookup(v);
  return n == kNoNode ? kEmptySet : nodes_[find(n)].pts;
}

bool PointsTo::is_unknown(const ir::Value* v) const {
  const NodeId n = lookup(v);
  return n != kNoNode && nodes_[find(n)].unknown;
}

PointsTo::OffsetRange PointsTo::offset_range(const ir::Value* v) const {
  const NodeId n = lookup(v);
  if (n == kNoNode) return OffsetRange{};
  const OffsetRange off = nodes_[find(n)].off;
  return off.lo > off.hi ? OffsetRange{} : off;
}

bool PointsTo::id_of_site(const ir::Value* site, ObjectId& id) const {
  auto it = object_ids_.find(site);
  if (it == object_ids_.end()) return false;
  id = it->second;
  return true;
}

const std::vector<PointsTo::ObjectId>& PointsTo::object_points_to(
    ObjectId o) const {
  return nodes_[find(content_node(o))].pts;
}

bool PointsTo::object_size(ObjectId o, std::uint64_t& cells) const {
  const AbstractObject& obj = objects_[o];
  switch (obj.kind) {
    case ObjectKind::kGlobal:
      cells = static_cast<const ir::GlobalVariable*>(obj.site)->cell_count();
      return true;
    case ObjectKind::kStack: {
      const auto imm = static_cast<const ir::Instruction*>(obj.site)->imm();
      if (imm < 0) return false;
      cells = static_cast<std::uint64_t>(imm);
      return true;
    }
    case ObjectKind::kHeap: {
      const auto* instr = static_cast<const ir::Instruction*>(obj.site);
      if (instr->operand_count() == 0 || !instr->operand(0)->is_constant()) {
        return false;
      }
      const auto count =
          static_cast<const ir::Constant*>(instr->operand(0))->value();
      if (count < 0) return false;
      cells = static_cast<std::uint64_t>(count);
      return true;
    }
    case ObjectKind::kFunction:
      return false;
  }
  return false;
}

std::vector<ir::Function*> PointsTo::resolve_indirect(
    const ir::Instruction* callptr) const {
  std::vector<ir::Function*> out;
  auto it = indirect_targets_.find(callptr);
  if (it == indirect_targets_.end()) return out;
  out.reserve(it->second.size());
  for (const ObjectId o : it->second) {
    if (object_functions_[o] != nullptr) out.push_back(object_functions_[o]);
  }
  return out;
}

bool PointsTo::indirect_unresolved(const ir::Instruction* callptr) const {
  return indirect_unresolved_.count(callptr) != 0;
}

}  // namespace owl::analysis
