// Static may-happen-in-parallel facts — the detector's happens-before view
// exported to the compile-time side (DESIGN.md §11).
//
// The dynamic detectors order events with vector clocks over thread
// create/join and mutex/hb edges. The checker suite needs the same question
// answered *statically*: can code in function A ever run concurrently with
// code in function B? We approximate with execution contexts: one root
// context for the initial thread (functions nobody calls or spawns), plus
// one context per thread_create site covering everything reachable from its
// callee through direct calls and resolved indirect calls. Joins are
// deliberately ignored — a parent context stays live past its children — so
// the answer over-approximates concurrency, which is the safe direction for
// checkers that use MHP as a *necessary* condition for reporting.
//
// A context is self-parallel when the same entry may be spawned twice
// (several create sites naming one callee, or a create site inside a natural
// loop); only then is a function concurrent with itself.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "ir/callgraph.hpp"
#include "ir/module.hpp"

namespace owl::race {

class MhpInfo {
 public:
  MhpInfo(const ir::Module& module, const ir::IndirectCallMap& resolved);

  /// True when `a` and `b` (possibly the same function) may execute in
  /// parallel on two distinct threads.
  bool may_happen_in_parallel(const ir::Function* a,
                              const ir::Function* b) const;

 private:
  std::uint64_t mask_of(const ir::Function* f) const;

  std::unordered_map<const ir::Function*, std::uint64_t> context_mask_;
  std::uint64_t self_parallel_ = 0;  ///< bit i: context i may run twice
};

}  // namespace owl::race
