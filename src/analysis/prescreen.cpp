#include "analysis/prescreen.hpp"

#include "ir/instruction.hpp"

namespace owl::analysis {

namespace {

/// Pointer operands whose dynamic address produces detector events:
/// load/store (plain candidates), atomic-rmw, and both strcpy/memcopy
/// endpoints (the interpreter emits a read at src and a write at dst).
struct EventPointers {
  const ir::Value* ptrs[2] = {nullptr, nullptr};
  int count = 0;
  bool plain = false;
};

EventPointers event_pointers(const ir::Instruction& instr) {
  EventPointers out;
  switch (instr.opcode()) {
    case ir::Opcode::kLoad:
      out.ptrs[out.count++] = instr.operand(0);
      out.plain = true;
      break;
    case ir::Opcode::kStore:
      out.ptrs[out.count++] = instr.operand(1);
      out.plain = true;
      break;
    case ir::Opcode::kAtomicRMWAdd:
      out.ptrs[out.count++] = instr.operand(0);
      break;
    case ir::Opcode::kStrCpy:
    case ir::Opcode::kMemCopy:
      if (instr.operand_count() >= 2) {
        out.ptrs[out.count++] = instr.operand(0);
        out.ptrs[out.count++] = instr.operand(1);
      }
      break;
    default:
      break;
  }
  return out;
}

}  // namespace

Prescreen::Prescreen(const ir::Module& module, const PointsTo& pt,
                     const ir::IndirectCallMap& resolved)
    : module_(module),
      pt_(pt),
      owned_facts_(std::make_unique<LockFacts>(module, pt, resolved)),
      facts_(owned_facts_.get()) {
  const std::size_t n = pt_.objects().size();
  escaped_.assign(n, 0);
  lockable_.assign(n, 1);
  consistently_locked_.assign(n, 0);
  scan_accesses();
  compute_escape();
  compute_lock_discipline_and_common();
  compute_verdicts();
}

Prescreen::Prescreen(const ir::Module& module, const PointsTo& pt,
                     const ir::IndirectCallMap& resolved,
                     const LockFacts& facts)
    : module_(module), pt_(pt), facts_(&facts) {
  (void)resolved;  // lock facts already folded the call graph in
  const std::size_t n = pt_.objects().size();
  escaped_.assign(n, 0);
  lockable_.assign(n, 1);
  consistently_locked_.assign(n, 0);
  scan_accesses();
  compute_escape();
  compute_lock_discipline_and_common();
  compute_verdicts();
}

void Prescreen::disable(std::string reason) {
  if (disable_reason_.empty()) disable_reason_ = std::move(reason);
}

Prescreen::PtrClass Prescreen::classify_pointer(const ir::Value* p) const {
  if (p->is_constant()) {
    const auto value = static_cast<const ir::Constant*>(p)->value();
    // A literal below the null guard can only fault into the guard page;
    // the detector re-checks addresses dynamically, so it is harmless.
    if (value >= 0 && value < kSafeConstantLimit) return PtrClass::kSubGuard;
  }
  if (pt_.is_unknown(p)) return PtrClass::kWild;
  const auto& pts = pt_.points_to(p);
  if (pts.empty()) return PtrClass::kWild;  // e.g. clean integer arithmetic
  const PointsTo::OffsetRange off = pt_.offset_range(p);
  if (!off.bounded() || off.lo < 0) return PtrClass::kWild;
  for (const PointsTo::ObjectId o : pts) {
    if (pt_.objects()[o].kind == ObjectKind::kFunction) return PtrClass::kWild;
    std::uint64_t cells = 0;
    if (pt_.object_size(o, cells)) {
      if (static_cast<std::uint64_t>(off.hi) >= cells) return PtrClass::kWild;
    } else if (off.lo != 0 || off.hi != 0) {
      // Unknown extent: only the (unique) base address is provably inside.
      return PtrClass::kWild;
    }
  }
  return PtrClass::kTame;
}

void Prescreen::scan_accesses() {
  if (pt_.has_unknown_store()) {
    disable("a store writes through an unbounded pointer");
  }
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        const EventPointers eps = event_pointers(*instr);
        if (eps.plain) ++considered_;
        for (int i = 0; i < eps.count; ++i) {
          if (classify_pointer(eps.ptrs[i]) == PtrClass::kWild) {
            ++wild_accesses_;
            disable("wild access at " + instr->loc().to_string() +
                    " could alias any object");
          }
        }
      }
    }
  }
}

void Prescreen::compute_escape() {
  std::vector<PointsTo::ObjectId> work;
  auto mark = [&](PointsTo::ObjectId o) {
    if (pt_.objects()[o].kind == ObjectKind::kFunction) return;
    if (escaped_[o]) return;
    escaped_[o] = 1;
    work.push_back(o);
  };
  // Roots: every global, and everything a thread-create argument may name.
  for (const auto& g : module_.globals()) {
    PointsTo::ObjectId id = 0;
    if (pt_.id_of_site(g.get(), id)) mark(id);
  }
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() == ir::Opcode::kThreadCreate &&
            instr->operand_count() > 0) {
          for (const PointsTo::ObjectId o :
               pt_.points_to(instr->operand(0))) {
            mark(o);
          }
        }
      }
    }
  }
  // Closure: anything an escaped object's cells may name escapes too.
  while (!work.empty()) {
    const PointsTo::ObjectId o = work.back();
    work.pop_back();
    for (const PointsTo::ObjectId target : pt_.object_points_to(o)) {
      mark(target);
    }
  }
}

void Prescreen::compute_lock_discipline_and_common() {
  // Discipline comes precomputed in LockFacts; what remains is the
  // per-object accessor pass: eligibility (plain accesses only) and the
  // intersection of well-formed held tokens across all accessors.
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        const EventPointers eps = event_pointers(*instr);
        for (int i = 0; i < eps.count; ++i) {
          if (classify_pointer(eps.ptrs[i]) != PtrClass::kTame) continue;
          for (const PointsTo::ObjectId o : pt_.points_to(eps.ptrs[i])) {
            if (!eps.plain) {
              lockable_[o] = 0;
              continue;
            }
            std::vector<PointsTo::ObjectId> held_wf;
            for (const PointsTo::ObjectId t :
                 facts_->must_held_before(instr.get())) {
              if (facts_->well_formed(t)) held_wf.push_back(t);
            }
            auto it = common_locks_.find(o);
            if (it == common_locks_.end()) {
              common_locks_.emplace(o, std::move(held_wf));
            } else {
              it->second = intersect_sorted(it->second, held_wf);
            }
          }
        }
      }
    }
  }
  for (std::size_t o = 0; o < consistently_locked_.size(); ++o) {
    auto it = common_locks_.find(static_cast<PointsTo::ObjectId>(o));
    consistently_locked_[o] = lockable_[o] != 0 && it != common_locks_.end() &&
                              !it->second.empty();
  }
}

void Prescreen::compute_verdicts() {
  if (!pruning_enabled()) return;
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        const EventPointers eps = event_pointers(*instr);
        if (!eps.plain) continue;
        const PtrClass cls = classify_pointer(eps.ptrs[0]);
        if (cls == PtrClass::kSubGuard) {
          // Can only fault into the guard page; the detector's dynamic
          // address check already ignores sub-guard events.
          no_race_.insert(instr.get());
          continue;
        }
        bool safe = true;
        for (const PointsTo::ObjectId o : pt_.points_to(eps.ptrs[0])) {
          if (escaped_[o] != 0 && consistently_locked_[o] == 0) {
            safe = false;
            break;
          }
        }
        if (safe) no_race_.insert(instr.get());
      }
    }
  }
}

}  // namespace owl::analysis
