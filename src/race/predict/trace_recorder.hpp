// Event-trace capture for the sync-preserving race predictor.
//
// The predictor (sp_predictor.hpp) reasons about *one observed execution* at
// a time: the total order of memory accesses and synchronization operations
// one scheduler run produced. This observer records exactly that, one Trace
// per detection schedule, sharing the Machine with the detector that is
// already attached — prediction costs no extra executions.
//
// Two details make the traces faithful to what the detector saw:
//  - §5.1 annotations (and atomic accesses) are sync, not data: an annotated
//    release-store / acquire-load is recorded as an access but flagged
//    `sync_access`, so the predictor treats it as a happens-before edge and
//    never as a race candidate — matching TsanDetector's report stream.
//  - Call stacks only exist while the Machine is alive (ContextTree interns
//    ids, not frames), so finish_run() materializes them — memoized per
//    (context, instr) — before the machine is torn down. The predict stage
//    itself runs long after.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/machine.hpp"
#include "race/annotations.hpp"

namespace owl::race::predict {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kRead,
    kWrite,
    kAcquire,       ///< lock acquired (addr = mutex)
    kRelease,       ///< lock released (addr = mutex)
    kHbRelease,     ///< hb_release / condvar-signal side (addr = sync var)
    kHbAcquire,     ///< hb_acquire / condvar-wait side (addr = sync var)
    kThreadCreate,  ///< addr = child thread id
    kThreadFinish,
    kThreadJoin,    ///< addr = joined thread id
  };

  Kind kind = Kind::kRead;
  /// Access carries release/acquire semantics (annotation or atomic) — a
  /// sync edge for the closure, never a candidate race endpoint.
  bool sync_access = false;
  interp::ThreadId tid = 0;
  interp::Address addr = 0;
  interp::Word value = 0;
  const ir::Instruction* instr = nullptr;  ///< accesses only
  interp::ContextId context = interp::kNoContext;

  bool is_access() const noexcept {
    return kind == Kind::kRead || kind == Kind::kWrite;
  }
};

/// One scheduler run's event stream plus the machine-lifetime facts the
/// predictor needs to synthesize RaceReports after the machine is gone.
struct Trace {
  std::vector<TraceEvent> events;
  /// Racy-object naming, as TsanDetector::record_race resolves it.
  std::unordered_map<interp::Address, std::string> object_names;
  /// Materialized stacks keyed by (context, instr) — the same pair
  /// ContextTree::call_stack consumes.
  struct StackKey {
    interp::ContextId context;
    const ir::Instruction* instr;
    bool operator==(const StackKey&) const = default;
  };
  struct StackKeyHash {
    std::size_t operator()(const StackKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.context * 0x9e3779b97f4a7c15ULL ^
                                        reinterpret_cast<std::uintptr_t>(
                                            k.instr));
    }
  };
  std::unordered_map<StackKey, interp::CallStack, StackKeyHash> stacks;

  const interp::CallStack* stack_for(const TraceEvent& event) const {
    const auto it = stacks.find(StackKey{event.context, event.instr});
    return it != stacks.end() ? &it->second : nullptr;
  }
};

class TraceRecorder final : public interp::Observer {
 public:
  /// Starts a detection pass: drops any previously recorded traces (only
  /// the final pass — the annotated re-run when there is one — feeds the
  /// predictor) and adopts that pass's annotation view. `annotations` may
  /// be null; not owned, must outlive the pass.
  void begin_pass(const AnnotationSet* annotations);

  /// Starts one scheduler run within the pass (one Trace).
  void begin_run();

  /// Materializes stacks and object names for the current run's access
  /// events. Must be called while `machine` is alive.
  void finish_run(const interp::Machine& machine);

  void on_access(const Access& access, const interp::Machine&) override;
  void on_sync(const Sync& sync, const interp::Machine&) override;

  const std::vector<Trace>& traces() const noexcept { return traces_; }

 private:
  const AnnotationSet* annotations_ = nullptr;
  std::vector<Trace> traces_;
};

}  // namespace owl::race::predict
