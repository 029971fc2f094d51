#include "analysis/lock_facts.hpp"

#include <algorithm>
#include <optional>

#include "ir/instruction.hpp"

namespace owl::analysis {

namespace {

void insert_sorted(std::vector<PointsTo::ObjectId>& set,
                   PointsTo::ObjectId v) {
  auto it = std::lower_bound(set.begin(), set.end(), v);
  if (it == set.end() || *it != v) set.insert(it, v);
}

void erase_sorted(std::vector<PointsTo::ObjectId>& set, PointsTo::ObjectId v) {
  auto it = std::lower_bound(set.begin(), set.end(), v);
  if (it != set.end() && *it == v) set.erase(it);
}

}  // namespace

std::vector<PointsTo::ObjectId> intersect_sorted(
    const std::vector<PointsTo::ObjectId>& a,
    const std::vector<PointsTo::ObjectId>& b) {
  std::vector<PointsTo::ObjectId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

const LockFacts::LockSet LockFacts::kEmptySet;

LockFacts::LockFacts(const ir::Module& module, const PointsTo& pt,
                     const ir::IndirectCallMap& resolved)
    : module_(module), pt_(pt), resolved_(resolved) {
  undisciplined_.assign(pt_.objects().size(), 0);
  compute_may_release();
  compute_locksets();
  compute_discipline();
}

const LockFacts::LockSet& LockFacts::must_held_before(
    const ir::Instruction* instr) const {
  auto it = must_before_.find(instr);
  return it == must_before_.end() ? kEmptySet : it->second;
}

bool LockFacts::lock_token(const ir::Value* operand,
                           PointsTo::ObjectId& token) const {
  if (operand->kind() != ir::ValueKind::kGlobalVariable) return false;
  return pt_.id_of_site(operand, token);
}

void LockFacts::call_targets(const ir::Instruction& instr,
                             std::vector<const ir::Function*>& targets,
                             bool& unknown) const {
  if (instr.opcode() == ir::Opcode::kCall) {
    const ir::Function* callee = instr.callee();
    if (callee != nullptr && callee->is_internal() && callee->has_body()) {
      targets.push_back(callee);
    }
    return;
  }
  if (instr.opcode() == ir::Opcode::kCallPtr) {
    if (pt_.indirect_unresolved(&instr)) {
      unknown = true;
      return;
    }
    auto it = resolved_.find(&instr);
    if (it == resolved_.end()) return;
    for (const ir::Function* target : it->second) {
      if (target->is_internal() && target->has_body()) {
        targets.push_back(target);
      }
    }
  }
}

bool LockFacts::call_released_tokens(const ir::Instruction& instr,
                                     LockSet& out) const {
  out.clear();
  std::vector<const ir::Function*> targets;
  bool unknown = false;
  call_targets(instr, targets, unknown);
  if (unknown) return false;
  for (const ir::Function* target : targets) {
    if (release_unknown_.count(target) != 0) return false;
    auto it = released_.find(target);
    if (it == released_.end()) continue;
    for (const PointsTo::ObjectId token : it->second) {
      insert_sorted(out, token);
    }
  }
  return true;
}

bool LockFacts::call_may_release(const ir::Instruction& instr,
                                 PointsTo::ObjectId token) const {
  LockSet tokens;
  if (!call_released_tokens(instr, tokens)) return true;
  return std::binary_search(tokens.begin(), tokens.end(), token);
}

void LockFacts::compute_may_release() {
  // Seed: a function's own unlocks. A token-resolved unlock releases
  // exactly that token; anything else may release any mutex.
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() != ir::Opcode::kUnlock) continue;
        PointsTo::ObjectId token = 0;
        if (instr->operand_count() > 0 &&
            lock_token(instr->operand(0), token)) {
          insert_sorted(released_[f.get()], token);
        } else {
          release_unknown_.insert(f.get());
        }
        may_release_.insert(f.get());
      }
    }
  }
  // Transitive closure over calls: a caller inherits everything its
  // callees may release; an unresolved indirect call may release anything.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& f : module_.functions()) {
      for (const auto& bb : f->blocks()) {
        for (const auto& instr : bb->instructions()) {
          if (!instr->is_call()) continue;
          std::vector<const ir::Function*> targets;
          bool unknown = false;
          call_targets(*instr, targets, unknown);
          for (const ir::Function* target : targets) {
            if (release_unknown_.count(target) != 0) unknown = true;
          }
          if (unknown && release_unknown_.count(f.get()) == 0) {
            release_unknown_.insert(f.get());
            may_release_.insert(f.get());
            changed = true;
          }
          for (const ir::Function* target : targets) {
            auto it = released_.find(target);
            if (it == released_.end()) continue;
            LockSet& mine = released_[f.get()];
            for (const PointsTo::ObjectId token : it->second) {
              if (!std::binary_search(mine.begin(), mine.end(), token)) {
                insert_sorted(mine, token);
                may_release_.insert(f.get());
                changed = true;
              }
            }
          }
        }
      }
    }
  }
}

void LockFacts::compute_locksets() {
  for (const auto& f : module_.functions()) {
    if (!f->has_body()) continue;
    auto transfer = [&](LockSet& cur, const ir::Instruction& instr) {
      PointsTo::ObjectId token = 0;
      switch (instr.opcode()) {
        case ir::Opcode::kLock:
          if (instr.operand_count() > 0 &&
              lock_token(instr.operand(0), token)) {
            insert_sorted(cur, token);
          }
          break;
        case ir::Opcode::kUnlock:
          if (instr.operand_count() > 0 &&
              lock_token(instr.operand(0), token)) {
            erase_sorted(cur, token);
          } else {
            cur.clear();  // released an unidentifiable mutex
          }
          break;
        case ir::Opcode::kCall:
        case ir::Opcode::kCallPtr: {
          LockSet released;
          if (!call_released_tokens(instr, released)) {
            cur.clear();  // may release an unidentifiable mutex
          } else {
            for (const PointsTo::ObjectId t : released) erase_sorted(cur, t);
          }
          break;
        }
        default:
          break;
      }
    };

    std::unordered_map<const ir::BasicBlock*, std::optional<LockSet>> in;
    for (const auto& bb : f->blocks()) in[bb.get()] = std::nullopt;
    in[f->entry()] = LockSet{};
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& bb : f->blocks()) {
        const auto& state = in[bb.get()];
        if (!state.has_value()) continue;
        LockSet out = *state;
        for (const auto& instr : bb->instructions()) transfer(out, *instr);
        if (bb->instructions().empty()) continue;
        for (const ir::BasicBlock* succ :
             bb->instructions().back()->targets()) {
          auto& sin = in[succ];
          if (!sin.has_value()) {
            sin = out;
            changed = true;
          } else {
            LockSet met = intersect_sorted(*sin, out);
            if (met != *sin) {
              sin = std::move(met);
              changed = true;
            }
          }
        }
      }
    }

    // Record the must-set immediately before every event/lock/unlock site.
    for (const auto& bb : f->blocks()) {
      LockSet cur = in[bb.get()].value_or(LockSet{});
      for (const auto& instr : bb->instructions()) {
        switch (instr->opcode()) {
          case ir::Opcode::kLoad:
          case ir::Opcode::kStore:
          case ir::Opcode::kAtomicRMWAdd:
          case ir::Opcode::kStrCpy:
          case ir::Opcode::kMemCopy:
          case ir::Opcode::kLock:
          case ir::Opcode::kUnlock:
            must_before_[instr.get()] = cur;
            break;
          default:
            break;
        }
        transfer(cur, *instr);
      }
    }
  }
}

void LockFacts::compute_discipline() {
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        const ir::Opcode op = instr->opcode();
        if (op != ir::Opcode::kLock && op != ir::Opcode::kUnlock) continue;
        if (instr->operand_count() == 0) continue;
        const ir::Value* operand = instr->operand(0);
        PointsTo::ObjectId token = 0;
        if (lock_token(operand, token)) {
          lock_sites_.push_back(LockSite{instr.get(), f.get(), token,
                                         op == ir::Opcode::kLock});
          if (op == ir::Opcode::kUnlock) {
            const auto& held = must_held_before(instr.get());
            if (!std::binary_search(held.begin(), held.end(), token)) {
              undisciplined_[token] = 1;  // foreign/unpaired unlock
            }
          }
          continue;
        }
        if (operand->is_constant()) {
          const auto v = static_cast<const ir::Constant*>(operand)->value();
          if (v >= 0 && v < kSafeConstantLimit) continue;  // guard-page mutex
        }
        const auto& pts = pt_.points_to(operand);
        if (pt_.is_unknown(operand) || pts.empty()) {
          all_undisciplined_ = true;  // could pair with any mutex
        } else {
          for (const PointsTo::ObjectId o : pts) undisciplined_[o] = 1;
        }
      }
    }
  }
}

std::string LockFacts::serialize() const {
  std::string out;
  out += "all_undisciplined=" + std::string(all_undisciplined_ ? "1" : "0") +
         "\n";
  auto token_name = [&](PointsTo::ObjectId t) {
    return pt_.objects()[t].site->name();
  };
  for (const auto& f : module_.functions()) {
    for (const auto& bb : f->blocks()) {
      const auto& instrs = bb->instructions();
      for (std::size_t i = 0; i < instrs.size(); ++i) {
        auto it = must_before_.find(instrs[i].get());
        if (it == must_before_.end()) continue;
        out += f->name() + " " + bb->label() + "#" + std::to_string(i) + " " +
               std::string(ir::opcode_name(instrs[i]->opcode())) + " must={";
        for (std::size_t k = 0; k < it->second.size(); ++k) {
          if (k != 0) out += ",";
          out += token_name(it->second[k]);
        }
        out += "}\n";
      }
    }
  }
  for (const auto& site : lock_sites_) {
    out += std::string(site.is_acquire ? "acquire " : "release ") +
           token_name(site.token) +
           " wf=" + (well_formed(site.token) ? "1" : "0") + " at " +
           site.instr->loc().to_string() + "\n";
  }
  return out;
}

}  // namespace owl::analysis
