#include "race/predict/sp_predictor.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_set>

#include "ir/module.hpp"

namespace owl::race::predict {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Loads whose value (transitively, through pure data flow) steers control
/// flow, an address, or crosses a function boundary. Only these must keep
/// their observed reads-from writer in a reordering: a diverging data-only
/// read changes values downstream but never which instructions execute.
std::unordered_set<const ir::Instruction*> steering_loads(
    const ir::Module& module) {
  std::unordered_set<const ir::Instruction*> loads;
  for (const auto& function : module.functions()) {
    std::unordered_set<const ir::Value*> marked;
    // Seed: operand positions whose value decides reachability or identity
    // of later events — branch conditions, every address computation, and
    // anything crossing a call/intrinsic boundary.
    for (const auto& block : function->blocks()) {
      for (const auto& instr : block->instructions()) {
        const ir::Opcode op = instr->opcode();
        if (instr->info().scalar || op == ir::Opcode::kPhi ||
            op == ir::Opcode::kPrint) {
          continue;  // pure data flow (or output-only): no seed
        }
        if (const ir::Value* ptr = instr->plain_address()) {
          marked.insert(ptr);  // a store's address, not its stored value
          continue;
        }
        // Conservative: br conditions, gep bases/offsets, lock/call/
        // intrinsic operands, ret values — all steering.
        for (const ir::Value* v : instr->operands()) marked.insert(v);
      }
    }
    // Propagate backward through pure data producers until stable; memory
    // reads terminate a chain (that is the load we are classifying).
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& block : function->blocks()) {
        for (const auto& instr : block->instructions()) {
          if (!marked.contains(instr.get())) continue;
          if (instr->opcode() == ir::Opcode::kLoad) continue;
          for (const ir::Value* v : instr->operands()) {
            if (marked.insert(v).second) changed = true;
          }
        }
      }
    }
    for (const auto& block : function->blocks()) {
      for (const auto& instr : block->instructions()) {
        if (instr->opcode() == ir::Opcode::kLoad &&
            marked.contains(instr.get())) {
          loads.insert(instr.get());
        }
      }
    }
  }
  return loads;
}

/// Per-trace structural index: everything the closure consults, built once
/// and shared by every pair query against that trace.
struct TraceIndex {
  const Trace* trace = nullptr;
  std::vector<std::uint32_t> local;  ///< per event: index within its thread
  std::map<interp::ThreadId, std::vector<std::size_t>> by_thread;
  std::vector<std::size_t> rf_writer;   ///< reads: last same-addr write
  std::vector<std::size_t> hb_source;   ///< acquire-side: last release-side
  std::vector<std::size_t> lock_rel;    ///< acquires: matching release
  std::map<interp::Address, std::vector<std::size_t>> lock_acquires;
  std::map<interp::ThreadId, std::size_t> creator;
  std::map<interp::ThreadId, std::size_t> finisher;
  /// Plain (non-sync) access events per static instruction id.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_instr;

  static bool release_side(const TraceEvent& e) {
    return e.kind == TraceEvent::Kind::kHbRelease ||
           (e.kind == TraceEvent::Kind::kWrite && e.sync_access);
  }
  static bool acquire_side(const TraceEvent& e) {
    return e.kind == TraceEvent::Kind::kHbAcquire ||
           (e.kind == TraceEvent::Kind::kRead && e.sync_access);
  }
};

TraceIndex build_index(const Trace& trace) {
  TraceIndex ix;
  ix.trace = &trace;
  const std::size_t n = trace.events.size();
  ix.local.resize(n, 0);
  ix.rf_writer.assign(n, kNone);
  ix.hb_source.assign(n, kNone);
  ix.lock_rel.assign(n, kNone);
  std::map<interp::Address, std::size_t> last_write;
  std::map<interp::Address, std::size_t> last_release_side;
  std::map<std::pair<interp::Address, interp::ThreadId>, std::size_t> open;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = trace.events[i];
    auto& lane = ix.by_thread[e.tid];
    ix.local[i] = static_cast<std::uint32_t>(lane.size());
    lane.push_back(i);
    switch (e.kind) {
      case TraceEvent::Kind::kRead:
        if (const auto it = last_write.find(e.addr); it != last_write.end()) {
          ix.rf_writer[i] = it->second;
        }
        if (e.sync_access) {
          if (const auto it = last_release_side.find(e.addr);
              it != last_release_side.end()) {
            ix.hb_source[i] = it->second;
          }
        } else if (e.instr != nullptr) {
          ix.by_instr[e.instr->id()].push_back(i);
        }
        break;
      case TraceEvent::Kind::kWrite:
        last_write[e.addr] = i;
        if (e.sync_access) {
          last_release_side[e.addr] = i;
        } else if (e.instr != nullptr) {
          ix.by_instr[e.instr->id()].push_back(i);
        }
        break;
      case TraceEvent::Kind::kAcquire:
        ix.lock_acquires[e.addr].push_back(i);
        open[{e.addr, e.tid}] = i;
        break;
      case TraceEvent::Kind::kRelease:
        if (const auto it = open.find({e.addr, e.tid}); it != open.end()) {
          ix.lock_rel[it->second] = i;
          open.erase(it);
        }
        break;
      case TraceEvent::Kind::kHbRelease:
        last_release_side[e.addr] = i;
        break;
      case TraceEvent::Kind::kHbAcquire:
        if (const auto it = last_release_side.find(e.addr);
            it != last_release_side.end()) {
          ix.hb_source[i] = it->second;
        }
        break;
      case TraceEvent::Kind::kThreadCreate:
        ix.creator.emplace(static_cast<interp::ThreadId>(e.addr), i);
        break;
      case TraceEvent::Kind::kThreadFinish:
        ix.finisher.emplace(e.tid, i);
        break;
      case TraceEvent::Kind::kThreadJoin:
        break;
    }
  }
  return ix;
}

/// One SP-closure query: can e1 and e2 be co-enabled by a sync-preserving
/// correct reordering of this trace?
class ClosureQuery {
 public:
  ClosureQuery(const TraceIndex& ix,
               const std::unordered_set<const ir::Instruction*>* steering,
               std::size_t e1, std::size_t e2)
      : ix_(ix), steering_(steering), e1_(e1), e2_(e2),
        t1_(ix.trace->events[e1].tid), t2_(ix.trace->events[e2].tid),
        cap1_(ix.local[e1]), cap2_(ix.local[e2]) {}

  bool feasible(std::uint64_t& iterations) {
    // The racing threads must have reached e1/e2: their po-prefixes are the
    // initial ideal, and both threads must have been started at all.
    require_creator(t1_);
    require_creator(t2_);
    if (cap1_ > 0) require(ix_.by_thread.at(t1_)[cap1_ - 1]);
    if (cap2_ > 0) require(ix_.by_thread.at(t2_)[cap2_ - 1]);
    drain();
    // Lock-order closure runs to fixpoint on top of the event worklist: a
    // round can pull a release (and its po-prefix) in, which can include
    // new acquires.
    bool changed = true;
    while (changed && !contradiction_) {
      changed = false;
      ++iterations;
      for (const auto& [addr, acquires] : ix_.lock_acquires) {
        std::size_t last_included = kNone;
        for (const std::size_t a : acquires) {
          if (!included(a)) continue;
          if (last_included != kNone) {
            const std::size_t rel = ix_.lock_rel[last_included];
            if (rel == kNone) {
              contradiction_ = true;  // held forever, yet re-acquired later
            } else if (!included(rel)) {
              require(rel);
              changed = true;
            }
          }
          last_included = a;
        }
        if (contradiction_) break;
      }
      drain();
    }
    iterations += processed_;
    if (contradiction_) return false;
    // Boundary: both threads parked at e1/e2 may not hold a common lock.
    for (const auto& [addr, acquires] : ix_.lock_acquires) {
      bool held1 = false;
      bool held2 = false;
      for (const std::size_t a : acquires) {
        const TraceEvent& acq = ix_.trace->events[a];
        if (acq.tid != t1_ && acq.tid != t2_) continue;
        if (!included(a)) continue;
        const std::size_t rel = ix_.lock_rel[a];
        const bool released = rel != kNone && included(rel);
        if (acq.tid == t1_) held1 = !released;
        if (acq.tid == t2_) held2 = !released;
      }
      if (held1 && held2) return false;
    }
    return true;
  }

 private:
  bool included(std::size_t idx) const {
    const interp::ThreadId t = ix_.trace->events[idx].tid;
    const auto it = frontier_.find(t);
    return it != frontier_.end() && ix_.local[idx] < it->second;
  }

  void require_creator(interp::ThreadId tid) {
    if (const auto it = ix_.creator.find(tid); it != ix_.creator.end()) {
      require(it->second);
    }
  }

  /// Includes `idx` and (via po) everything before it in its thread.
  void require(std::size_t idx) {
    if (contradiction_) return;
    const interp::ThreadId t = ix_.trace->events[idx].tid;
    const std::uint32_t li = ix_.local[idx];
    if ((t == t1_ && li >= cap1_) || (t == t2_ && li >= cap2_)) {
      contradiction_ = true;  // forced to run past a racing event
      return;
    }
    std::size_t& fr = frontier_[t];
    if (li < fr) return;
    if (fr == 0) require_creator(t);
    const auto& lane = ix_.by_thread.at(t);
    for (std::size_t j = fr; j <= li; ++j) worklist_.push_back(lane[j]);
    fr = li + 1;
  }

  void drain() {
    while (!worklist_.empty() && !contradiction_) {
      const std::size_t idx = worklist_.back();
      worklist_.pop_back();
      ++processed_;
      const TraceEvent& e = ix_.trace->events[idx];
      switch (e.kind) {
        case TraceEvent::Kind::kRead:
          if (TraceIndex::acquire_side(e)) {
            if (ix_.hb_source[idx] != kNone) require(ix_.hb_source[idx]);
          } else if (ix_.rf_writer[idx] != kNone &&
                     (steering_ == nullptr || e.instr == nullptr ||
                      steering_->contains(e.instr))) {
            require(ix_.rf_writer[idx]);
          }
          break;
        case TraceEvent::Kind::kHbAcquire:
          if (ix_.hb_source[idx] != kNone) require(ix_.hb_source[idx]);
          break;
        case TraceEvent::Kind::kThreadJoin: {
          const auto joined = static_cast<interp::ThreadId>(e.addr);
          if (const auto it = ix_.finisher.find(joined);
              it != ix_.finisher.end()) {
            require(it->second);
          } else {
            contradiction_ = true;  // joining a thread the trace never ended
          }
          break;
        }
        default:
          break;  // writes, acquires/releases, create/finish: no extra edge
      }
    }
  }

  const TraceIndex& ix_;
  const std::unordered_set<const ir::Instruction*>* steering_;
  std::size_t e1_, e2_;
  interp::ThreadId t1_, t2_;
  std::uint32_t cap1_, cap2_;
  std::map<interp::ThreadId, std::size_t> frontier_;
  std::vector<std::size_t> worklist_;
  std::uint64_t processed_ = 0;
  bool contradiction_ = false;
};

bool conflicting(const TraceEvent& a, const TraceEvent& b) {
  return a.tid != b.tid && a.addr == b.addr &&
         (a.kind == TraceEvent::Kind::kWrite ||
          b.kind == TraceEvent::Kind::kWrite);
}

AccessRecord make_record(const Trace& trace, const TraceEvent& event) {
  AccessRecord record;
  record.tid = event.tid;
  record.instr = event.instr;
  record.addr = event.addr;
  record.value = event.value;
  record.is_write = event.kind == TraceEvent::Kind::kWrite;
  if (const interp::CallStack* stack = trace.stack_for(event)) {
    record.stack = *stack;
  }
  return record;
}

}  // namespace

PredictOutcome SpPredictor::analyze(
    const ir::Module* module, const std::vector<Trace>& traces,
    const std::vector<RaceReport>& reduced) const {
  PredictOutcome out;
  std::unordered_set<const ir::Instruction*> steering;
  if (module != nullptr) steering = steering_loads(*module);
  const auto* steering_ptr = module != nullptr ? &steering : nullptr;

  std::vector<TraceIndex> indexes;
  indexes.reserve(traces.size());
  for (const Trace& trace : traces) indexes.push_back(build_index(trace));

  // --- verdicts for the detector's reduced reports ---
  // kInfeasible demands exhaustion: every dynamic occurrence of the key, in
  // every trace, within the enumeration cap, must close with a
  // contradiction. Atomicity reports are not races the SP theory covers;
  // they stay kUnknown and are never pruned.
  std::unordered_set<ReportKey, ReportKeyHash> reduced_keys;
  for (const RaceReport& report : reduced) {
    const ReportKey key = report.key();
    reduced_keys.insert(key);
    if (out.verdicts.contains(key)) continue;
    if (report.kind != ReportKind::kDataRace) {
      out.verdicts.emplace(key, Feasibility::kUnknown);
      continue;
    }
    bool any_feasible = false;
    bool capped = false;
    std::size_t occurrences = 0;
    for (const TraceIndex& ix : indexes) {
      if (any_feasible) break;
      const auto a_it = ix.by_instr.find(key.first);
      const auto b_it = ix.by_instr.find(key.second);
      if (a_it == ix.by_instr.end() || b_it == ix.by_instr.end()) continue;
      std::size_t checked = 0;
      for (const std::size_t a : a_it->second) {
        if (any_feasible || capped) break;
        for (const std::size_t b : b_it->second) {
          if (key.first == key.second && b <= a) continue;
          const std::size_t lo = std::min(a, b);
          const std::size_t hi = std::max(a, b);
          if (!conflicting(ix.trace->events[lo], ix.trace->events[hi])) {
            continue;
          }
          if (checked >= options_.max_pairs_per_key) {
            capped = true;
            break;
          }
          ++checked;
          ++occurrences;
          ++out.candidates;
          ClosureQuery query(ix, steering_ptr, lo, hi);
          if (query.feasible(out.closure_iterations)) {
            any_feasible = true;
            break;
          }
        }
      }
    }
    Feasibility verdict = Feasibility::kUnknown;
    if (any_feasible) {
      verdict = Feasibility::kFeasible;
    } else if (occurrences > 0 && !capped) {
      verdict = Feasibility::kInfeasible;
      ++out.infeasible_keys;
    }
    out.verdicts.emplace(key, verdict);
  }

  // --- predicted-new candidates ---
  // Nearest-conflict enumeration: each plain access pairs with the closest
  // earlier conflicting access of every other thread. Keys the detector
  // already reported are skipped (their verdicts are above), and so is any
  // address a reduced report already covers — prediction's job here is
  // surfacing *objects* the observed schedules missed entirely, not extra
  // instruction pairs on a bug the detector has in hand (those would make
  // the final report set diverge from exhaustive exploration on a
  // schedule-count technicality). A key proved feasible once is synthesized
  // from that first (deterministic) occurrence.
  std::unordered_set<interp::Address> reported_addrs;
  for (const RaceReport& report : reduced) {
    reported_addrs.insert(report.first.addr);
    reported_addrs.insert(report.second.addr);
  }
  std::unordered_map<ReportKey, std::size_t, ReportKeyHash> new_checked;
  std::unordered_set<ReportKey, ReportKeyHash> new_feasible;
  for (const TraceIndex& ix : indexes) {
    const Trace& trace = *ix.trace;
    struct LastAccess {
      std::size_t read = kNone;
      std::size_t write = kNone;
    };
    std::map<interp::Address, std::map<interp::ThreadId, LastAccess>> last;
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      const TraceEvent& e = trace.events[i];
      if (!e.is_access() || e.sync_access || e.instr == nullptr) continue;
      if (reported_addrs.contains(e.addr)) continue;
      const bool is_write = e.kind == TraceEvent::Kind::kWrite;
      auto& per_thread = last[e.addr];
      for (const auto& [tid, prior] : per_thread) {
        if (tid == e.tid) continue;
        std::vector<std::size_t> partners;
        if (prior.write != kNone) partners.push_back(prior.write);
        if (is_write && prior.read != kNone) partners.push_back(prior.read);
        for (const std::size_t p : partners) {
          const TraceEvent& pe = trace.events[p];
          const std::uint64_t ia = pe.instr->id();
          const std::uint64_t ib = e.instr->id();
          const ReportKey key{std::min(ia, ib), std::max(ia, ib)};
          if (reduced_keys.contains(key) || new_feasible.contains(key)) {
            continue;
          }
          std::size_t& checked = new_checked[key];
          if (checked >= options_.max_pairs_per_key) continue;
          ++checked;
          ++out.candidates;
          ClosureQuery query(ix, steering_ptr, p, i);
          if (!query.feasible(out.closure_iterations)) continue;
          new_feasible.insert(key);
          RaceReport report;
          report.kind = ReportKind::kDataRace;
          report.first = make_record(trace, pe);
          report.second = make_record(trace, e);
          report.predicted = true;
          if (const auto name = trace.object_names.find(e.addr);
              name != trace.object_names.end()) {
            report.object_name = name->second;
          }
          out.predicted_new.push_back(std::move(report));
        }
      }
      LastAccess& mine = per_thread[e.tid];
      if (is_write) {
        mine.write = i;
      } else {
        mine.read = i;
      }
    }
  }
  std::sort(out.predicted_new.begin(), out.predicted_new.end(), report_order);
  return out;
}

}  // namespace owl::race::predict
