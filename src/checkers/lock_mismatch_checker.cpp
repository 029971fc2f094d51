#include "checkers/lock_mismatch_checker.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace owl::checkers {

namespace {

using ObjectId = analysis::PointsTo::ObjectId;

struct AccessSite {
  const ir::Instruction* instr = nullptr;
  const ir::Function* function = nullptr;
  bool guarded = false;
};

}  // namespace

void LockMismatchChecker::run(const AnalysisContext& ctx, BugReportMgr& mgr) {
  const analysis::LockFacts& facts = ctx.lock_facts();
  const analysis::PointsTo& pt = ctx.points_to();
  const analysis::Prescreen& prescreen = ctx.statics.prescreen;

  // LM-001 / LM-002: compare each token-resolved lock site against the
  // must-held set immediately before it.
  for (const auto& site : facts.lock_sites()) {
    const auto& held = facts.must_held_before(site.instr);
    const bool holds =
        std::binary_search(held.begin(), held.end(), site.token);
    if (!site.is_acquire && !holds) {
      BugReport report;
      report.rule_id = "OWL-LM-001";
      report.level = Severity::kError;
      report.message = "unlock of @" + ctx.object_name(site.token) +
                       " which is not provably held (release without "
                       "acquire)";
      report.locations.push_back(
          BugLocation{site.instr->loc(), site.function->name(),
                      "unlock @" + ctx.object_name(site.token)});
      mgr.add(std::move(report));
    } else if (site.is_acquire && holds) {
      BugReport report;
      report.rule_id = "OWL-LM-002";
      report.level = Severity::kError;
      report.message = "lock of @" + ctx.object_name(site.token) +
                       " which is already held (self-deadlock: MiniIR "
                       "mutexes are non-reentrant)";
      report.locations.push_back(
          BugLocation{site.instr->loc(), site.function->name(),
                      "lock @" + ctx.object_name(site.token)});
      mgr.add(std::move(report));
    }
  }

  // LM-003: per escaped object, split plain accessors into guarded (some
  // well-formed token held) and unguarded; mixed sets that may run in
  // parallel mean the guard is decorative.
  std::map<ObjectId, std::vector<AccessSite>> accessors;
  for (const auto& f : ctx.module.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        const ir::Value* ptr = instr->plain_address();
        if (ptr == nullptr) continue;
        bool guarded = false;
        for (const ObjectId t : facts.must_held_before(instr.get())) {
          if (facts.well_formed(t)) {
            guarded = true;
            break;
          }
        }
        for (const ObjectId o : pt.points_to(ptr)) {
          if (!prescreen.object_escapes(o)) continue;
          accessors[o].push_back(AccessSite{instr.get(), f.get(), guarded});
        }
      }
    }
  }
  for (const auto& [object, sites] : accessors) {
    const AccessSite* guarded = nullptr;
    for (const AccessSite& site : sites) {
      if (site.guarded) {
        guarded = &site;
        break;
      }
    }
    if (guarded == nullptr) continue;
    for (const AccessSite& site : sites) {
      if (site.guarded) continue;
      if (!ctx.mhp.may_happen_in_parallel(guarded->function, site.function)) {
        continue;
      }
      BugReport report;
      report.rule_id = "OWL-LM-003";
      report.level = Severity::kWarning;
      report.message =
          "@" + ctx.object_name(object) +
          " is accessed both with and without a lock by concurrent threads";
      report.locations.push_back(
          BugLocation{site.instr->loc(), site.function->name(),
                      "unguarded access to @" + ctx.object_name(object)});
      report.locations.push_back(
          BugLocation{guarded->instr->loc(), guarded->function->name(),
                      "guarded access to @" + ctx.object_name(object)});
      mgr.add(std::move(report));
      break;  // one finding per object keeps reports readable
    }
  }
}

}  // namespace owl::checkers
