#include "checkers/atomicity_checker.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace owl::checkers {

namespace {

using ObjectId = analysis::PointsTo::ObjectId;

/// True when `value` transitively data-depends on the result of `target`.
bool depends_on(const ir::Value* value, const ir::Instruction* target) {
  std::vector<const ir::Value*> work{value};
  std::unordered_set<const ir::Value*> seen;
  while (!work.empty()) {
    const ir::Value* v = work.back();
    work.pop_back();
    if (!seen.insert(v).second) continue;
    if (v->kind() != ir::ValueKind::kInstruction) continue;
    const auto* instr = static_cast<const ir::Instruction*>(v);
    if (instr == target) return true;
    for (const ir::Value* operand : instr->operands()) work.push_back(operand);
  }
  return false;
}

/// Which functions may write each abstract object (plain or bulk writes).
std::unordered_map<ObjectId, std::vector<const ir::Function*>> build_writers(
    const AnalysisContext& ctx) {
  std::unordered_map<ObjectId, std::vector<const ir::Function*>> writers;
  const analysis::PointsTo& pt = ctx.points_to();
  for (const auto& f : ctx.module.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        const ir::Value* ptr = instr->accessed_address(/*write=*/true);
        if (ptr == nullptr) continue;
        for (const ObjectId o : pt.points_to(ptr)) {
          auto& fns = writers[o];
          if (fns.empty() || fns.back() != f.get()) fns.push_back(f.get());
        }
      }
    }
  }
  return writers;
}

}  // namespace

void AtomicityChecker::run(const AnalysisContext& ctx, BugReportMgr& mgr) {
  const analysis::LockFacts& facts = ctx.lock_facts();
  const analysis::PointsTo& pt = ctx.points_to();
  const analysis::Prescreen& prescreen = ctx.statics.prescreen;
  const auto writers = build_writers(ctx);

  auto wf_tokens = [&](const ir::Instruction* instr) {
    std::vector<ObjectId> out;
    for (const ObjectId t : facts.must_held_before(instr)) {
      if (facts.well_formed(t)) out.push_back(t);
    }
    return out;
  };

  auto mhp_writer_exists = [&](ObjectId o, const ir::Function* f) {
    auto it = writers.find(o);
    if (it == writers.end()) return false;
    for (const ir::Function* g : it->second) {
      if (ctx.mhp.may_happen_in_parallel(f, g)) return true;
    }
    return false;
  };

  for (const auto& f : ctx.module.functions()) {
    // Block-order linearization: an approximation of program order that is
    // exact for the straight-line critical sections this checker targets.
    std::vector<const ir::Instruction*> linear;
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        linear.push_back(instr.get());
      }
    }

    for (std::size_t i = 0; i < linear.size(); ++i) {
      const ir::Instruction* load = linear[i];
      if (load->opcode() != ir::Opcode::kLoad) continue;
      const std::vector<ObjectId> load_tokens = wf_tokens(load);
      if (load_tokens.empty()) continue;
      std::vector<ObjectId> load_objects;
      for (const ObjectId o : pt.points_to(load->operand(0))) {
        if (prescreen.object_escapes(o)) load_objects.push_back(o);
      }
      if (load_objects.empty()) continue;

      for (std::size_t j = i + 1; j < linear.size(); ++j) {
        const ir::Instruction* store = linear[j];
        if (store->opcode() != ir::Opcode::kStore) continue;
        // Same shared location?
        const auto& store_pts = pt.points_to(store->operand(1));
        ObjectId shared = 0;
        bool have_shared = false;
        for (const ObjectId o : load_objects) {
          if (std::binary_search(store_pts.begin(), store_pts.end(), o)) {
            shared = o;
            have_shared = true;
            break;
          }
        }
        if (!have_shared) continue;
        // Same guard on both sides?
        const std::vector<ObjectId> store_tokens = wf_tokens(store);
        ObjectId guard = 0;
        bool have_guard = false;
        for (const ObjectId t : load_tokens) {
          if (std::find(store_tokens.begin(), store_tokens.end(), t) !=
              store_tokens.end()) {
            guard = t;
            have_guard = true;
            break;
          }
        }
        if (!have_guard) continue;
        // Released in between?
        const ir::Instruction* release = nullptr;
        for (std::size_t k = i + 1; k < j && release == nullptr; ++k) {
          const ir::Instruction* mid = linear[k];
          if (mid->opcode() == ir::Opcode::kUnlock &&
              mid->operand_count() > 0) {
            ObjectId token = 0;
            if (facts.lock_token(mid->operand(0), token) && token == guard) {
              release = mid;
            }
          } else if (mid->is_call() && facts.call_may_release(*mid, guard)) {
            release = mid;
          }
        }
        if (release == nullptr) continue;
        // The written value must derive from the stale read, and a
        // concurrent writer must exist to exploit the window.
        if (!depends_on(store->operand(0), load)) continue;
        if (!mhp_writer_exists(shared, f.get())) continue;

        BugReport report;
        report.rule_id = "OWL-AV-001";
        report.level = Severity::kWarning;
        report.message = "@" + ctx.object_name(shared) + " read under @" +
                         ctx.object_name(guard) +
                         " flows into a write in a later critical section "
                         "of the same mutex";
        report.locations.push_back(
            BugLocation{load->loc(), f->name(),
                        "read of @" + ctx.object_name(shared) + " under @" +
                            ctx.object_name(guard)});
        report.locations.push_back(BugLocation{
            release->loc(), f->name(),
            "@" + ctx.object_name(guard) + " released here; a concurrent "
            "writer can interleave"});
        report.locations.push_back(
            BugLocation{store->loc(), f->name(),
                        "dependent write of @" + ctx.object_name(shared) +
                            " under re-acquired @" + ctx.object_name(guard)});
        mgr.add(std::move(report));
      }
    }
  }
}

}  // namespace owl::checkers
