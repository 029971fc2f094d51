// TSan-markup annotations.
//
// OWL's adhoc-synchronization stage (§5.1) "automatically annotates program
// source code with TSan markups and re-runs the detector". In this
// reproduction the markup is a side table: instructions listed here are
// treated by the detectors as release-stores / acquire-loads instead of
// plain accesses, exactly like C++ atomics, so the annotated busy-wait pair
// and everything it orders stop producing reports.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "ir/instruction.hpp"

namespace owl::race {

class AnnotationSet {
 public:
  /// Marks `write` as a release-store (the "dying = 1" side).
  void add_release_store(const ir::Instruction* write) {
    releases_.insert(write);
  }
  /// Marks `read` as an acquire-load (the busy-wait read side).
  void add_acquire_load(const ir::Instruction* read) {
    acquires_.insert(read);
  }

  bool is_release_store(const ir::Instruction* instr) const noexcept {
    return releases_.contains(instr);
  }
  bool is_acquire_load(const ir::Instruction* instr) const noexcept {
    return acquires_.contains(instr);
  }
  bool annotated(const ir::Instruction* instr) const noexcept {
    return is_release_store(instr) || is_acquire_load(instr);
  }

  std::size_t size() const noexcept {
    return releases_.size() + acquires_.size();
  }
  bool empty() const noexcept { return size() == 0; }

  /// Number of annotated *pairs* (paper counts adhoc syncs as pairs).
  std::size_t pair_count() const noexcept {
    return std::min(releases_.size(), acquires_.size());
  }

 private:
  std::unordered_set<const ir::Instruction*> releases_;
  std::unordered_set<const ir::Instruction*> acquires_;
};

}  // namespace owl::race
