#include "repair/planner.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/value_flow.hpp"
#include "ir/cfg.hpp"
#include "ir/dominators.hpp"

namespace owl::repair {
namespace {

using analysis::LockFacts;
using analysis::PointsTo;
using analysis::ValueFlowGraph;

/// The racy instruction sites of the confirmed reports, deduplicated.
std::set<const ir::Instruction*> racy_sites(
    const std::vector<race::RaceReport>& confirmed) {
  std::set<const ir::Instruction*> sites;
  for (const race::RaceReport& report : confirmed) {
    if (report.first.instr != nullptr) sites.insert(report.first.instr);
    if (report.second.instr != nullptr) sites.insert(report.second.instr);
  }
  return sites;
}

/// Points-to footprint of one guard site: every abstract object any operand
/// may reference; `unknown` set when the analysis cannot bound an operand.
struct SiteObjects {
  std::set<PointsTo::ObjectId> ids;
  bool unknown = false;
};

SiteObjects site_objects(const PointsTo& pt, const ir::Instruction& instr) {
  SiteObjects out;
  for (const ir::Value* operand : instr.operands()) {
    if (pt.is_unknown(operand)) out.unknown = true;
    for (const PointsTo::ObjectId id : pt.points_to(operand)) {
      out.ids.insert(id);
    }
  }
  return out;
}

bool objects_overlap(const SiteObjects& a, const SiteObjects& b) {
  if (a.unknown || b.unknown) return true;
  for (const PointsTo::ObjectId id : a.ids) {
    if (b.ids.count(id) != 0) return true;
  }
  return false;
}

/// Thread-invisible instructions: pure register/pointer arithmetic that
/// cannot interact with any other thread no matter the interleaving.
/// Moving a critical-section boundary across one is provably behavior-
/// preserving; everything else (memory, sync, calls, I/O) keeps clusters
/// joined — the conservative direction is the pre-narrowing whole-span.
bool thread_invisible(const ir::Instruction& instr) {
  switch (instr.opcode()) {
    case ir::Opcode::kAdd:
    case ir::Opcode::kSub:
    case ir::Opcode::kMul:
    case ir::Opcode::kUDiv:
    case ir::Opcode::kSDiv:
    case ir::Opcode::kAnd:
    case ir::Opcode::kOr:
    case ir::Opcode::kXor:
    case ir::Opcode::kShl:
    case ir::Opcode::kLShr:
    case ir::Opcode::kICmp:
    case ir::Opcode::kGep:
      return true;
    default:
      return false;
  }
}

/// Racy sites folded into per-(function, block) guard spans, emitted in
/// module declaration order — then narrowed (DESIGN.md §14): the historic
/// one-span-per-block [min, max] range over-guards when a block carries
/// independent site clusters separated by thread-invisible code. Two
/// consecutive sites stay in one cluster unless all three independence
/// proofs hold: disjoint points-to footprints, no value-flow register edge
/// from the cluster into the next site, and a separating gap made solely
/// of thread-invisible instructions. Each cluster becomes the minimal
/// dominating range [first site, last site] — within a block the first
/// instruction dominates the rest, and the dominator tree vouches the
/// block itself is entry-reachable (unreachable blocks keep the merged
/// whole-range span: no dominating lock placement exists for them).
std::vector<GuardSpan> guard_spans(
    const ir::Module& module, const analysis::ModuleStatic& statics,
    const ValueFlowGraph& vfg,
    const std::set<const ir::Instruction*>& sites) {
  std::vector<GuardSpan> spans;
  for (const auto& function : module.functions()) {
    // Lazily built per function: most functions carry no guard sites.
    std::optional<ir::Cfg> cfg;
    std::optional<ir::DominatorTree> domtree;
    for (const auto& block : function->blocks()) {
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < block->size(); ++i) {
        if (sites.count(block->instructions()[i].get()) != 0) {
          indices.push_back(i);
        }
      }
      if (indices.empty()) continue;
      if (!cfg.has_value()) {
        cfg.emplace(*function);
        domtree.emplace(*cfg);
      }

      std::vector<std::pair<std::size_t, std::size_t>> clusters;
      if (function->entry() == nullptr ||
          !domtree->dominates(function->entry(), block.get())) {
        clusters.emplace_back(indices.front(), indices.back());
      } else {
        std::vector<const ir::Instruction*> members;
        SiteObjects cluster_objects;
        std::size_t lo = indices.front();
        std::size_t hi = indices.front();
        members.push_back(block->instructions()[lo].get());
        cluster_objects = site_objects(statics.points_to, *members.back());
        for (std::size_t k = 1; k < indices.size(); ++k) {
          const std::size_t at = indices[k];
          const ir::Instruction* next = block->instructions()[at].get();
          const SiteObjects next_objects =
              site_objects(statics.points_to, *next);
          bool join = objects_overlap(cluster_objects, next_objects);
          if (!join) {
            for (const ir::Instruction* member : members) {
              const std::vector<const ir::Instruction*>& uses =
                  vfg.uses(member);
              if (std::find(uses.begin(), uses.end(), next) != uses.end()) {
                join = true;
                break;
              }
            }
          }
          if (!join) {
            // Adjacent sites stay joined: splitting them inserts an
            // unlock;lock seam with zero code between — pure overhead.
            join = at == hi + 1;
            for (std::size_t i = hi + 1; i < at; ++i) {
              if (!thread_invisible(*block->instructions()[i])) {
                join = true;
                break;
              }
            }
          }
          if (join) {
            hi = at;
            members.push_back(next);
            cluster_objects.unknown |= next_objects.unknown;
            cluster_objects.ids.insert(next_objects.ids.begin(),
                                       next_objects.ids.end());
          } else {
            clusters.emplace_back(lo, hi);
            members.assign(1, next);
            cluster_objects = next_objects;
            lo = at;
            hi = at;
          }
        }
        clusters.emplace_back(lo, hi);
      }

      for (const auto& [lo, hi] : clusters) {
        GuardSpan span;
        span.first = {function->name(), block->label(), lo};
        span.last_index = hi;
        spans.push_back(std::move(span));
      }
    }
  }
  return spans;
}

/// True when `instr` directly accesses the global named `object`.
bool accesses_global(const ir::Instruction& instr, const std::string& object) {
  if (!instr.is_memory_access()) return false;
  for (const ir::Value* operand : instr.operands()) {
    if (operand->kind() == ir::ValueKind::kGlobalVariable &&
        operand->name() == object) {
      return true;
    }
  }
  return false;
}

/// Well-formed tokens protecting some non-racy access to `object` — the
/// "a lock already protects this variable on other paths" evidence.
std::set<PointsTo::ObjectId> protecting_tokens(
    const ir::Module& module, const LockFacts& facts,
    const std::set<const ir::Instruction*>& sites, const std::string& object) {
  std::set<PointsTo::ObjectId> tokens;
  for (const auto& function : module.functions()) {
    for (const auto& block : function->blocks()) {
      for (const auto& instr : block->instructions()) {
        if (sites.count(instr.get()) != 0) continue;
        if (!accesses_global(*instr, object)) continue;
        for (const PointsTo::ObjectId token :
             facts.must_held_before(instr.get())) {
          if (facts.well_formed(token)) tokens.insert(token);
        }
      }
    }
  }
  return tokens;
}

/// Name of the global behind a points-to token ("" when not a global).
std::string token_global_name(const PointsTo& pt, PointsTo::ObjectId token) {
  if (token >= pt.objects().size()) return "";
  const analysis::AbstractObject& object = pt.objects()[token];
  if (object.kind != analysis::ObjectKind::kGlobal || object.site == nullptr) {
    return "";
  }
  return object.site->name();
}

/// A store movable without disturbing SSA dependencies: both operands are
/// always-available values (constants / globals), and stores produce no
/// result anything downstream could consume.
bool is_movable_store(const ir::Instruction& instr) {
  if (instr.opcode() != ir::Opcode::kStore) return false;
  for (const ir::Value* operand : instr.operands()) {
    if (operand->kind() != ir::ValueKind::kConstant &&
        operand->kind() != ir::ValueKind::kGlobalVariable) {
      return false;
    }
  }
  return true;
}

/// Relocation window test: `site` sits in a block after some thread_create
/// and before some thread_join; returns the coordinate of the *last* join
/// in that block (the move anchor) via `anchor`.
bool in_spawn_window(const ir::Instruction& site, ir::InstrCoord& anchor) {
  const ir::BasicBlock* block = site.parent();
  if (block == nullptr) return false;
  const std::size_t site_index = block->index_of(&site);
  bool create_before = false;
  std::size_t last_join = 0;
  bool join_after = false;
  for (std::size_t i = 0; i < block->size(); ++i) {
    const ir::Instruction& instr = *block->instructions()[i];
    if (instr.opcode() == ir::Opcode::kThreadCreate && i < site_index) {
      create_before = true;
    }
    if (instr.opcode() == ir::Opcode::kThreadJoin && i > site_index) {
      join_after = true;
      last_join = i;
    }
  }
  if (!create_before || !join_after) return false;
  anchor = {block->parent()->name(), block->label(), last_join};
  return true;
}

}  // namespace

std::vector<RepairCandidate> RepairPlanner::plan(
    const std::vector<race::RaceReport>& confirmed) const {
  std::vector<RepairCandidate> candidates;
  const std::set<const ir::Instruction*> sites = racy_sites(confirmed);
  if (sites.empty()) return candidates;

  // One value-flow graph powers the span narrowing for every candidate —
  // cheap relative to the verification gates each candidate then faces.
  const ValueFlowGraph vfg(module_, statics_.points_to,
                           statics_.resolved_calls);

  // Guard every access to the racy objects, not just the reported pair:
  // the confirmed set is schedule-dependent (a different seed confirms a
  // different subset of the same underlying races), and a lock that covers
  // only the witnessed sites leaves the sibling accesses racing — the
  // race-freedom gate would reject the patch on re-verification.
  std::set<std::string> objects;
  for (const race::RaceReport& report : confirmed) {
    if (!report.object_name.empty()) objects.insert(report.object_name);
  }
  std::set<const ir::Instruction*> guard_sites = sites;
  for (const auto& function : module_.functions()) {
    for (const auto& block : function->blocks()) {
      for (const auto& instr : block->instructions()) {
        for (const std::string& object : objects) {
          if (accesses_global(*instr, object)) {
            guard_sites.insert(instr.get());
            break;
          }
        }
      }
    }
  }
  const std::vector<GuardSpan> spans =
      guard_spans(module_, statics_, vfg, guard_sites);

  // --- 1. lock_reuse: one existing lock must cover every racy object ---
  {
    std::set<PointsTo::ObjectId> shared;
    bool first_object = true;
    for (const std::string& object : objects) {
      const std::set<PointsTo::ObjectId> tokens = protecting_tokens(
          module_, statics_.lock_facts, sites, object);
      if (first_object) {
        shared = tokens;
        first_object = false;
      } else {
        std::set<PointsTo::ObjectId> kept;
        std::set_intersection(shared.begin(), shared.end(), tokens.begin(),
                              tokens.end(),
                              std::inserter(kept, kept.begin()));
        shared = std::move(kept);
      }
    }
    if (!objects.empty() && !shared.empty()) {
      const PointsTo::ObjectId token = *shared.begin();
      const std::string name = token_global_name(statics_.points_to, token);
      // Guard only the sites that do not already hold the reused lock —
      // wrapping an access that acquired it on entry would self-deadlock,
      // and the already-guarded sites are precisely the evidence the lock
      // works.
      std::set<const ir::Instruction*> unguarded;
      for (const ir::Instruction* site : guard_sites) {
        bool held = false;
        for (const PointsTo::ObjectId h :
             statics_.lock_facts.must_held_before(site)) {
          if (h == token) {
            held = true;
            break;
          }
        }
        if (!held) unguarded.insert(site);
      }
      if (!name.empty() && !unguarded.empty()) {
        RepairCandidate candidate;
        candidate.strategy = Strategy::kLockReuse;
        candidate.lock = name;
        candidate.guards = guard_spans(module_, statics_, vfg, unguarded);
        candidates.push_back(std::move(candidate));
      }
    }
  }

  // --- 2. relocate: every report must have a movable spawn-window store ---
  {
    RepairCandidate candidate;
    candidate.strategy = Strategy::kRelocate;
    std::set<const ir::Instruction*> moved;
    bool all_movable = !confirmed.empty();
    for (const race::RaceReport& report : confirmed) {
      const ir::Instruction* movable = nullptr;
      ir::InstrCoord anchor;
      for (const ir::Instruction* side : {report.first.instr,
                                          report.second.instr}) {
        if (side != nullptr && is_movable_store(*side) &&
            in_spawn_window(*side, anchor)) {
          movable = side;
          break;
        }
      }
      if (movable == nullptr) {
        all_movable = false;
        break;
      }
      if (moved.insert(movable).second) {
        candidate.moves.push_back({ir::coord_of(*movable), anchor});
      }
    }
    if (all_movable && !candidate.moves.empty()) {
      candidates.push_back(std::move(candidate));
    }
  }

  // --- 3. lock_insert: always plannable — one fresh mutex for all spans ---
  {
    RepairCandidate candidate;
    candidate.strategy = Strategy::kLockInsert;
    candidate.lock = "__owl_fix";
    candidate.guards = spans;
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

}  // namespace owl::repair
