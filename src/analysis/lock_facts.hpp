// Reusable whole-module lock facts (DESIGN.md §11), extracted from the
// prescreen so the checker suite and the prescreen consume one computation:
//
//  * a forward must-lockset dataflow per function (meet = intersection,
//    entry = ∅ — callers may hold locks we cannot see, and claiming fewer
//    held locks is the safe direction), recording the must-held token set
//    immediately before every access/lock/unlock site;
//  * a may-release closure over the call graph tracking WHICH tokens each
//    function may transitively unlock, so a call drops exactly the released
//    tokens from the must set (resolved indirect calls included); only a
//    callee that may release an unidentifiable mutex — or an unresolved
//    indirect call — still clears the whole set;
//  * lock discipline: a mutex token is well-formed only when every
//    lock/unlock of it names the global directly and every unlock provably
//    holds it (a foreign unlock could break a happens-before chain
//    mid-critical-section, so such tokens prove nothing);
//  * the flat, deterministic list of token-resolved lock/unlock sites in
//    module order, which the deadlock and lock-mismatch checkers walk.
//
// Tokens are PointsTo object ids of global mutex variables; anything else
// (computed pointers, unknown values) degrades conservatively exactly as the
// pre-refactor prescreen did — the golden-fact snapshots under
// tests/golden/prescreen_facts/ pin that equivalence.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/points_to.hpp"
#include "ir/callgraph.hpp"

namespace owl::analysis {

/// The intersection of two sorted object-id sets (the lockset meet).
std::vector<PointsTo::ObjectId> intersect_sorted(
    const std::vector<PointsTo::ObjectId>& a,
    const std::vector<PointsTo::ObjectId>& b);

class LockFacts {
 public:
  using LockSet = std::vector<PointsTo::ObjectId>;

  LockFacts(const ir::Module& module, const PointsTo& pt,
            const ir::IndirectCallMap& resolved);

  /// Must-held lock tokens immediately before `instr` (empty set for
  /// instructions the dataflow never recorded: non-access, non-lock sites).
  const LockSet& must_held_before(const ir::Instruction* instr) const;
  /// True when the dataflow recorded a fact for `instr`.
  bool has_fact(const ir::Instruction* instr) const {
    return must_before_.count(instr) != 0;
  }

  /// Resolves a lock/unlock operand to its token: the operand must name a
  /// global variable directly (computed mutexes prove nothing).
  bool lock_token(const ir::Value* operand, PointsTo::ObjectId& token) const;

  /// True when executing `instr` (a call site) may release `token`
  /// specifically (or some mutex the analysis cannot identify).
  bool call_may_release(const ir::Instruction& instr,
                        PointsTo::ObjectId token) const;
  /// Fills `out` with the sorted tokens `instr` (a call site) may
  /// transitively release. Returns false when the call may release an
  /// unidentifiable mutex — the caller must then drop every held token.
  bool call_released_tokens(const ir::Instruction& instr,
                            LockSet& out) const;
  /// True when `fn` (or anything it may call) contains an unlock.
  bool function_may_release(const ir::Function* fn) const {
    return may_release_.count(fn) != 0;
  }

  /// Lock-discipline verdict for a token (see file comment).
  bool well_formed(PointsTo::ObjectId token) const {
    return !all_undisciplined_ && undisciplined_[token] == 0;
  }
  /// True when some lock/unlock operand could pair with any mutex.
  bool all_undisciplined() const noexcept { return all_undisciplined_; }

  /// One token-resolved lock/unlock site, in module declaration order.
  struct LockSite {
    const ir::Instruction* instr = nullptr;
    const ir::Function* function = nullptr;
    PointsTo::ObjectId token = 0;
    bool is_acquire = false;
  };
  const std::vector<LockSite>& lock_sites() const noexcept {
    return lock_sites_;
  }

  /// Deterministic text snapshot of every recorded fact (golden tests).
  std::string serialize() const;

 private:
  void compute_may_release();
  void compute_locksets();
  void compute_discipline();

  const ir::Module& module_;
  const PointsTo& pt_;
  const ir::IndirectCallMap& resolved_;

  void call_targets(const ir::Instruction& instr,
                    std::vector<const ir::Function*>& targets,
                    bool& unknown) const;

  std::unordered_set<const ir::Function*> may_release_;
  /// Tokens each function may transitively release (sorted, deduped).
  std::unordered_map<const ir::Function*, LockSet> released_;
  /// Functions that may release a mutex the analysis cannot identify.
  std::unordered_set<const ir::Function*> release_unknown_;
  std::unordered_map<const ir::Instruction*, LockSet> must_before_;
  std::vector<char> undisciplined_;
  bool all_undisciplined_ = false;
  std::vector<LockSite> lock_sites_;

  static const LockSet kEmptySet;
};

}  // namespace owl::analysis
