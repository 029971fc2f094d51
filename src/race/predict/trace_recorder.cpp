#include "race/predict/trace_recorder.hpp"

#include "interp/memory.hpp"

namespace owl::race::predict {

void TraceRecorder::begin_pass(const AnnotationSet* annotations) {
  annotations_ = annotations;
  traces_.clear();
}

void TraceRecorder::begin_run() { traces_.emplace_back(); }

void TraceRecorder::on_access(const Access& access, const interp::Machine&) {
  if (traces_.empty()) return;
  TraceEvent event;
  event.kind = access.is_write ? TraceEvent::Kind::kWrite
                               : TraceEvent::Kind::kRead;
  event.sync_access =
      access.is_atomic ||
      (annotations_ != nullptr && annotations_->annotated(access.instr));
  event.tid = access.tid;
  event.addr = access.addr;
  event.value = access.value;
  event.instr = access.instr;
  event.context = access.context;
  traces_.back().events.push_back(event);
}

void TraceRecorder::on_sync(const Sync& sync, const interp::Machine&) {
  if (traces_.empty()) return;
  TraceEvent event;
  switch (sync.kind) {
    case SyncKind::kLockAcquire:
      event.kind = TraceEvent::Kind::kAcquire;
      break;
    case SyncKind::kLockRelease:
      event.kind = TraceEvent::Kind::kRelease;
      break;
    case SyncKind::kHbRelease:
      event.kind = TraceEvent::Kind::kHbRelease;
      break;
    case SyncKind::kHbAcquire:
      event.kind = TraceEvent::Kind::kHbAcquire;
      break;
    case SyncKind::kThreadCreate:
      event.kind = TraceEvent::Kind::kThreadCreate;
      break;
    case SyncKind::kThreadFinish:
      event.kind = TraceEvent::Kind::kThreadFinish;
      break;
    case SyncKind::kThreadJoin:
      event.kind = TraceEvent::Kind::kThreadJoin;
      break;
  }
  event.tid = sync.tid;
  event.addr = sync.addr;
  traces_.back().events.push_back(event);
}

void TraceRecorder::finish_run(const interp::Machine& machine) {
  if (traces_.empty()) return;
  Trace& trace = traces_.back();
  for (const TraceEvent& event : trace.events) {
    if (!event.is_access()) continue;
    const Trace::StackKey key{event.context, event.instr};
    if (!trace.stacks.contains(key)) {
      trace.stacks.emplace(
          key, machine.contexts().call_stack(event.context, event.instr));
    }
    if (!trace.object_names.contains(event.addr)) {
      const interp::MemObject* obj = machine.memory().find_object(event.addr);
      trace.object_names.emplace(
          event.addr, obj != nullptr ? std::string(obj->name) : std::string());
    }
  }
}

}  // namespace owl::race::predict
