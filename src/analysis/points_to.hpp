// Andersen-style inclusion-based points-to analysis over MiniIR.
//
// Whole-module, flow- and context-insensitive, field-insensitive (one
// abstract "content" node per allocation site — the first cut DESIGN.md §9
// documents). Constraints come from alloca/malloc/global (address-of),
// gep/phi (copy), load/store (complex), direct and indirect calls
// (parameter/return copies, resolved on the fly from the function objects
// flowing into a callptr target operand), thread_create (argument copy into
// the entry function), atomic-rmw, and strcpy/memcopy (content-to-content
// copy).
//
// Anything the abstract domain cannot bound — workload inputs, results of
// external calls, arithmetic over pointer-bearing operands, integer
// literals large enough to name simulated memory — taints the receiving
// value "unknown". Unknown pointers make the consuming analyses (prescreen,
// indirect-call resolution) fall back to conservative answers instead of
// silently under-approximating.
//
// Alongside the points-to sets the solver tracks, per value, a saturating
// [lo, hi] bound on the cell offset the value may carry relative to the
// base of any pointed-to object (gep adds its constant; variable geps and
// cyclic gep chains widen to unbounded). The prescreen uses it to decide
// whether a memory access provably stays inside its objects' extents —
// without it an out-of-bounds gep could reach a neighbouring object and a
// "provably thread-local" verdict would be unsound.
//
// Determinism: abstract objects are numbered in module declaration order
// (globals, then functions, then allocation instructions in function /
// block / instruction order) and every points-to set is a sorted vector of
// those ids, so two runs — and two identically-built modules — produce
// identical sets regardless of hashing or work order.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/module.hpp"

namespace owl::analysis {

/// Integer literals below this can never name simulated memory (the
/// interpreter reserves addresses [0, 4096) as a null-guard page); anything
/// else could collide with a live object address and taints its consumers
/// "unknown". Kept in sync with interp::kNullGuard by a static_assert where
/// both headers are visible (core/pipeline.cpp).
constexpr std::int64_t kSafeConstantLimit = 4096;

enum class ObjectKind {
  kGlobal,    ///< a GlobalVariable's cells
  kStack,     ///< one kAlloca site (all dynamic instances collapsed)
  kHeap,      ///< one kMalloc site (all dynamic instances collapsed)
  kFunction,  ///< a Function used as a first-class value
};

/// One abstract memory object (allocation site, global, or function).
struct AbstractObject {
  ObjectKind kind;
  const ir::Value* site;  ///< GlobalVariable | alloca/malloc | Function
};

class PointsTo {
 public:
  using ObjectId = std::uint32_t;

  /// Saturating bound on the cell offset a value may carry relative to the
  /// base of any object it points to.
  struct OffsetRange {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    bool bounded() const noexcept {
      return lo != std::numeric_limits<std::int64_t>::min() &&
             hi != std::numeric_limits<std::int64_t>::max();
    }
  };

  explicit PointsTo(const ir::Module& module);

  /// All abstract objects, indexed by ObjectId, in deterministic order.
  const std::vector<AbstractObject>& objects() const noexcept {
    return objects_;
  }

  /// Sorted object ids `v` may point to (empty for non-pointers and for
  /// values the analysis never saw).
  const std::vector<ObjectId>& points_to(const ir::Value* v) const;
  /// True when `v` may hold a pointer the analysis cannot bound.
  bool is_unknown(const ir::Value* v) const;
  /// Offset bound for `v`; {0, 0} when only object bases flow into it.
  OffsetRange offset_range(const ir::Value* v) const;

  /// ObjectId of an allocation site / global / function value, if any.
  bool id_of_site(const ir::Value* site, ObjectId& id) const;

  /// Sorted object ids the cells of object `o` may point to.
  const std::vector<ObjectId>& object_points_to(ObjectId o) const;
  /// Cell count of `o` when statically known (globals, constant-sized
  /// allocas/mallocs). Returns false for functions and dynamic sizes.
  bool object_size(ObjectId o, std::uint64_t& cells) const;

  /// True when some store writes through a pointer the analysis cannot
  /// bound — such a store may clobber ANY object, so consumers relying on
  /// object disjointness must give up (prescreen disables pruning).
  bool has_unknown_store() const noexcept { return unknown_store_; }

  /// Functions `callptr`'s target operand may name, in module declaration
  /// order. Includes external functions; callers filter as needed.
  std::vector<ir::Function*> resolve_indirect(
      const ir::Instruction* callptr) const;
  /// True when the callptr's target operand is unknown or may hold
  /// non-function values — resolve_indirect() is then incomplete.
  bool indirect_unresolved(const ir::Instruction* callptr) const;

  /// Solver statistics, exposed for tests and benchmarks.
  struct Stats {
    std::size_t nodes = 0;
    std::size_t objects = 0;
    std::size_t copy_edges = 0;
    std::size_t scc_merges = 0;
    std::size_t propagations = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  using NodeId = std::uint32_t;

  struct Edge {
    NodeId dst;
    std::int64_t add_lo;  // offset addend (INT64_MIN = unbounded below)
    std::int64_t add_hi;  // offset addend (INT64_MAX = unbounded above)
  };

  struct Node {
    std::vector<ObjectId> pts;    // sorted, deduplicated
    std::vector<ObjectId> delta;  // added since last processing
    // Empty (lo > hi) until a pointer actually flows in, so the very first
    // range lands exactly instead of being unioned with a spurious {0, 0}.
    OffsetRange off{std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int64_t>::min()};
    std::uint8_t off_bumps = 0;   // widening counter
    bool unknown = false;
    bool unknown_handled = false;
    bool in_worklist = false;
    std::vector<Edge> copy_out;       // subset edges: pts(this) ⊆ pts(dst)
    std::vector<NodeId> arith_out;    // taint: ptr-ish(this) → unknown(dst)
    std::vector<NodeId> load_users;   // results of loads through this ptr
    std::vector<NodeId> store_values; // values stored through this ptr
    std::vector<std::pair<NodeId, NodeId>> rmw_users;  // (result, delta)
    std::vector<const ir::Instruction*> call_users;    // callptrs via this
    std::vector<std::uint32_t> copyop_users;  // indices into copy_ops_
  };

  struct CopyOp {  // strcpy/memcopy: *dst ⊇ *src over resolved objects
    NodeId dst;
    NodeId src;
  };

  // --- graph construction ---
  ObjectId add_object(ObjectKind kind, const ir::Value* site,
                      ir::Function* fn = nullptr);
  NodeId node_of(const ir::Value* v);
  NodeId lookup(const ir::Value* v) const;
  NodeId content_node(ObjectId o) const { return static_cast<NodeId>(o); }
  void enumerate_objects();
  void seed_constraints();
  void seed_instruction(const ir::Instruction& instr);
  void add_copy_edge(NodeId from, NodeId to, std::int64_t add_lo = 0,
                     std::int64_t add_hi = 0);
  void add_arith_edge(NodeId from, NodeId to);
  void add_load_user(NodeId ptr, NodeId result);
  void add_store_value(NodeId ptr, NodeId value);
  void add_points_to(NodeId n, ObjectId o);
  void set_unknown(NodeId n);
  void push_offset(NodeId to, std::int64_t lo, std::int64_t hi);

  // --- solving ---
  NodeId find(NodeId n) const;
  void schedule(NodeId n);
  void solve();
  void drain();
  void process(NodeId n);
  void process_unknown(NodeId n);
  void process_copyop(std::uint32_t index);
  void wire_indirect(const ir::Instruction* callptr, ObjectId fn_object);
  std::size_t collapse_cycles();
  void merge(NodeId into, NodeId from);

  const ir::Module& module_;
  std::vector<AbstractObject> objects_;
  std::vector<ir::Function*> object_functions_;  // non-null for kFunction
  std::unordered_map<const ir::Value*, ObjectId> object_ids_;
  std::unordered_map<const ir::Value*, NodeId> value_nodes_;
  std::vector<Node> nodes_;
  mutable std::vector<NodeId> parent_;  // union-find, path compression
  std::vector<CopyOp> copy_ops_;
  std::unordered_map<const ir::Instruction*, std::vector<ObjectId>>
      indirect_targets_;  // callptr -> function objects resolved so far
  std::unordered_set<const ir::Instruction*> indirect_unresolved_;
  std::unordered_map<const ir::Function*, std::vector<NodeId>> return_nodes_;
  std::unordered_set<std::uint64_t> dyn_edge_seen_;
  std::vector<NodeId> worklist_;
  bool unknown_store_ = false;
  bool edges_dirty_ = false;
  Stats stats_;

  static const std::vector<ObjectId> kEmptySet;
};

}  // namespace owl::analysis
