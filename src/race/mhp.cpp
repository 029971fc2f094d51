#include "race/mhp.hpp"

#include <bit>
#include <memory>
#include <unordered_set>
#include <vector>

#include "ir/function.hpp"
#include "ir/instruction.hpp"
#include "ir/loops.hpp"

namespace owl::race {

namespace {

using CallEdges =
    std::unordered_map<const ir::Function*, std::vector<const ir::Function*>>;

bool runnable_body(const ir::Function* f) {
  return f != nullptr && f->is_internal() && f->has_body();
}

CallEdges build_call_edges(const ir::Module& module,
                           const ir::IndirectCallMap& resolved) {
  CallEdges edges;
  for (const auto& f : module.functions()) {
    auto& out = edges[f.get()];
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() == ir::Opcode::kCall) {
          if (runnable_body(instr->callee())) out.push_back(instr->callee());
        } else if (instr->opcode() == ir::Opcode::kCallPtr) {
          auto it = resolved.find(instr.get());
          if (it == resolved.end()) continue;
          for (const ir::Function* target : it->second) {
            if (runnable_body(target)) out.push_back(target);
          }
        }
      }
    }
  }
  return edges;
}

}  // namespace

MhpInfo::MhpInfo(const ir::Module& module,
                 const ir::IndirectCallMap& resolved) {
  const CallEdges edges = build_call_edges(module, resolved);

  // Propagate one context bit through the call graph from `entry`.
  auto flood = [&](const ir::Function* entry, std::uint64_t bit) {
    std::vector<const ir::Function*> work{entry};
    while (!work.empty()) {
      const ir::Function* f = work.back();
      work.pop_back();
      std::uint64_t& mask = context_mask_[f];
      if ((mask & bit) != 0) continue;
      mask |= bit;
      auto it = edges.find(f);
      if (it == edges.end()) continue;
      for (const ir::Function* callee : it->second) work.push_back(callee);
    }
  };

  // Spawn sites in module order; count per callee for self-parallelism.
  struct SpawnSite {
    const ir::Function* callee;
    bool in_loop;
  };
  std::vector<SpawnSite> spawns;
  std::unordered_map<const ir::Function*, std::size_t> spawn_count;
  std::unordered_set<const ir::Function*> called_or_spawned;
  for (const auto& [caller, callees] : edges) {
    (void)caller;
    for (const ir::Function* callee : callees) {
      called_or_spawned.insert(callee);
    }
  }
  for (const auto& f : module.functions()) {
    std::unique_ptr<ir::LoopInfo> loops;  // built lazily per function
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() != ir::Opcode::kThreadCreate) continue;
        const ir::Function* callee = instr->callee();
        if (!runnable_body(callee)) continue;
        if (!loops) loops = std::make_unique<ir::LoopInfo>(*f);
        spawns.push_back(SpawnSite{callee, loops->in_loop(instr.get())});
        ++spawn_count[callee];
        called_or_spawned.insert(callee);
      }
    }
  }
  // Context 0: the initial thread, entered at some root function. Roots are
  // functions nobody calls or spawns; if the call graph is fully cyclic we
  // conservatively treat every function as a potential entry.
  bool have_root = false;
  for (const auto& f : module.functions()) {
    if (!runnable_body(f.get())) continue;
    if (called_or_spawned.count(f.get()) != 0) continue;
    flood(f.get(), 1);
    have_root = true;
  }
  if (!have_root) {
    for (const auto& f : module.functions()) {
      if (runnable_body(f.get())) flood(f.get(), 1);
    }
  }

  // One context per spawn site, saturating at bit 63.
  for (std::size_t i = 0; i < spawns.size(); ++i) {
    const unsigned bit_index = i + 1 < 64 ? static_cast<unsigned>(i + 1) : 63;
    const std::uint64_t bit = std::uint64_t{1} << bit_index;
    flood(spawns[i].callee, bit);
    if (spawns[i].in_loop || spawn_count[spawns[i].callee] > 1 ||
        (bit_index == 63 && spawns.size() > 63)) {
      self_parallel_ |= bit;
    }
  }
}

std::uint64_t MhpInfo::mask_of(const ir::Function* f) const {
  auto it = context_mask_.find(f);
  return it == context_mask_.end() ? 0 : it->second;
}

bool MhpInfo::may_happen_in_parallel(const ir::Function* a,
                                     const ir::Function* b) const {
  const std::uint64_t ma = mask_of(a);
  const std::uint64_t mb = mask_of(b);
  if (ma == 0 || mb == 0) return false;
  const std::uint64_t u = ma | mb;
  if (std::popcount(u) >= 2) return true;
  // Both confined to one context: concurrent only if it can run twice.
  return (u & self_parallel_) != 0;
}

}  // namespace owl::race
