#include "interp/machine.hpp"

#include <algorithm>
#include <cassert>

#include "support/strings.hpp"

namespace owl::interp {

namespace {
constexpr std::size_t kMaxSecurityEvents = 10000;
/// Runaway-copy guard: strcpy measures and memcpy copies at most this many
/// cells.
constexpr std::uint64_t kStrCpyCap = 65536;
}

std::string_view security_event_kind_name(SecurityEventKind kind) noexcept {
  switch (kind) {
    case SecurityEventKind::kNullPtrDeref: return "null-ptr-deref";
    case SecurityEventKind::kNullFuncPtrDeref: return "null-func-ptr-deref";
    case SecurityEventKind::kArbitraryCodeExec: return "arbitrary-code-exec";
    case SecurityEventKind::kBufferOverflow: return "buffer-overflow";
    case SecurityEventKind::kUseAfterFree: return "use-after-free";
    case SecurityEventKind::kDoubleFree: return "double-free";
    case SecurityEventKind::kOutOfBounds: return "out-of-bounds";
    case SecurityEventKind::kPrivilegeEscalation: return "privilege-escalation";
    case SecurityEventKind::kIntegerUnderflow: return "integer-underflow";
    case SecurityEventKind::kDataLeak: return "data-leak";
    case SecurityEventKind::kDeadlock: return "deadlock";
  }
  return "?";
}

std::string SecurityEvent::to_string() const {
  std::string out(security_event_kind_name(kind));
  out += " [thread " + std::to_string(tid) + "]";
  if (instr != nullptr) {
    out += " at " + instr->summary();
  }
  if (!detail.empty()) {
    out += " — " + detail;
  }
  return out;
}

MachineImage::MachineImage(const ir::Module& module) : module_(&module) {
  global_addr_.reserve(module.globals().size());
  for (const auto& g : module.globals()) {
    global_addr_.push_back(memory_.allocate(
        ObjectKind::kGlobal, g->cell_count(), g->initial_value(), g->name()));
  }
  for (const auto& f : module.functions()) {
    functions_by_id_[f->id()] = f.get();
  }
}

const ir::Function* MachineImage::resolve_function(Word value) const {
  auto it = functions_by_id_.find(static_cast<std::uint64_t>(value));
  return it != functions_by_id_.end() ? it->second : nullptr;
}

Machine::Machine(std::shared_ptr<const MachineImage> image,
                 MachineOptions options)
    : image_(std::move(image)),
      options_(std::move(options)),
      memory_(image_->memory()) {}

Machine::Machine(const ir::Module& module, MachineOptions options)
    : Machine(std::make_shared<const MachineImage>(module),
              std::move(options)) {}

MachineFactory machine_factory(std::shared_ptr<const ir::Module> module,
                               std::shared_ptr<const MachineImage> image,
                               const ir::Function* entry,
                               MachineOptions options) {
  return [module = std::move(module), image = std::move(image), entry,
          options = std::move(options)] {
    auto machine = std::make_unique<Machine>(image, options);
    machine->start(entry);
    return machine;
  };
}

ThreadId Machine::start(const ir::Function* entry) {
  assert(threads_.empty() && "start() must create the first thread");
  return spawn(entry, 0);
}

ThreadId Machine::spawn(const ir::Function* entry, Word arg) {
  assert(entry != nullptr && entry->has_body());
  const ThreadId tid = static_cast<ThreadId>(threads_.size());
  Thread& thread = threads_.emplace_back(tid, entry);
  Frame& frame = enter_function(thread, entry, /*call_site=*/nullptr);
  if (!entry->arguments().empty()) {
    thread.registers(frame)[entry->argument(0)->slot()] = arg;
  }
  unannounced_.push_back(tid);
  runnable_stale_ = true;
  return tid;
}

Thread* Machine::thread(ThreadId tid) {
  return tid < threads_.size() ? &threads_[tid] : nullptr;
}
const Thread* Machine::thread(ThreadId tid) const {
  return tid < threads_.size() ? &threads_[tid] : nullptr;
}

void Machine::collect_runnable() {
  if (!runnable_stale_ && tick_ < next_wake_) return;
  runnable_stale_ = false;
  next_wake_ = UINT64_MAX;
  runnable_.clear();
  for (const Thread& t : threads_) {
    if (t.state() == ThreadState::kRunnable) {
      runnable_.push_back(t.id());
    } else if (t.state() == ThreadState::kSleeping) {
      if (t.wake_tick <= tick_) {
        runnable_.push_back(t.id());
      } else {
        next_wake_ = std::min(next_wake_, t.wake_tick);
      }
    }
  }
}

void Machine::set_state(Thread& thread, ThreadState state) {
  thread.set_state(state);
  runnable_stale_ = true;
}

Address Machine::global_address(const ir::GlobalVariable* global) const {
  return image_->global_address(global);
}

Address Machine::global_address(std::string_view name) const {
  const ir::GlobalVariable* g = module().find_global(name);
  assert(g != nullptr && "unknown global");
  return global_address(g);
}

Word Machine::read_global(std::string_view name) const {
  return memory_.load_raw(global_address(name));
}

Word Machine::eval_in_thread(ThreadId tid, const ir::Value* value) const {
  const Thread* t = thread(tid);
  if (t == nullptr || t->frames().empty()) return 0;
  const Frame& frame = t->top();
  // A register of another function has no slot in this frame: it reads 0,
  // as a def that never executed here does.
  if (value->kind() == ir::ValueKind::kArgument &&
      static_cast<const ir::Argument*>(value)->parent() != frame.function) {
    return 0;
  }
  if (value->kind() == ir::ValueKind::kInstruction &&
      static_cast<const ir::Instruction*>(value)->function() !=
          frame.function) {
    return 0;
  }
  return value_of(t->registers(frame), value);
}

const ir::Function* Machine::resolve_function(Word value) const {
  return image_->resolve_function(value);
}

Word Machine::function_value(const ir::Function* function) const {
  return static_cast<Word>(function->id());
}

bool Machine::has_event(SecurityEventKind kind) const noexcept {
  return std::any_of(security_events_.begin(), security_events_.end(),
                     [&](const SecurityEvent& e) { return e.kind == kind; });
}

RunResult Machine::run(Scheduler& scheduler) {
  while (true) {
    for (ThreadId tid : unannounced_) scheduler.on_thread_created(tid);
    unannounced_.clear();

    if (steps_ >= options_.max_steps) {
      return {StopReason::kStepBudget, steps_, std::nullopt, 0};
    }

    if (fault_injector_ != nullptr && fault_injector_->should_stall()) {
      // Injected scheduler stall: the step is burned without executing, so
      // a persistent stall deterministically exhausts the step budget —
      // exactly how a pathological schedule looks from the outside.
      ++steps_;
      ++tick_;
      continue;
    }

    collect_runnable();
    if (runnable_.empty()) {
      bool all_finished = true;
      bool any_sleeping = false;
      bool any_suspended = false;
      std::uint64_t min_wake = UINT64_MAX;
      for (const Thread& t : threads_) {
        if (t.finished()) continue;
        all_finished = false;
        if (t.state() == ThreadState::kSleeping) {
          any_sleeping = true;
          min_wake = std::min(min_wake, t.wake_tick);
        } else if (t.state() == ThreadState::kSuspended) {
          any_suspended = true;
        }
      }
      if (all_finished) {
        return {StopReason::kAllFinished, steps_, std::nullopt, 0};
      }
      if (any_sleeping) {
        tick_ = min_wake;  // fast-forward simulated time to the next wake
        continue;
      }
      if (any_suspended) {
        return {StopReason::kAllSuspended, steps_, std::nullopt, 0};
      }
      // Every live thread is blocked on a lock or join: true deadlock.
      for (Thread& t : threads_) {
        if (!t.finished()) {
          emit_event(SecurityEventKind::kDeadlock, t, t.next_instruction(),
                     "no runnable thread");
          break;
        }
      }
      return {StopReason::kDeadlock, steps_, std::nullopt, 0};
    }

    const ThreadId tid = scheduler.pick(runnable_, steps_);
    Thread& t = threads_[tid];
    if (t.state() == ThreadState::kSleeping) {
      // It woke up, so it is in runnable_ already.
      t.set_state(ThreadState::kRunnable);
    }

    const ir::Instruction* instr = t.next_instruction();
    if (instr == nullptr) {
      finish_thread(t);
      continue;
    }

    const bool honor_skip =
        t.skip_breakpoint_once &&
        (fault_injector_ == nullptr ||
         !fault_injector_->livelock_breakpoints());
    if (debugger_ != nullptr && !honor_skip) {
      if (Breakpoint* bp = debugger_->match(tid, instr)) {
        // With an injected breakpoint livelock the skip-once release is
        // ignored: the thread re-suspends with zero progress, which is the
        // verifier-session livelock the stage watchdogs must break.
        set_state(t, ThreadState::kSuspended);
        return {StopReason::kBreakpoint, steps_, tid, bp->id};
      }
    }

    execute(t);
    ++steps_;
    ++tick_;
  }
}

Status Machine::resume_thread(ThreadId tid, bool skip_breakpoint_once) {
  Thread* t = thread(tid);
  if (t == nullptr) return invalid_argument_error("no such thread");
  if (t->state() != ThreadState::kSuspended) {
    return failed_precondition_error("thread is not suspended");
  }
  set_state(*t, ThreadState::kRunnable);
  t->skip_breakpoint_once = skip_breakpoint_once;
  return Status::ok();
}

// --------------------------------------------------------------------------
// Core interpreter
// --------------------------------------------------------------------------

Word Machine::value_of(const Word* regs, const ir::Value* value) const {
  switch (value->kind()) {
    case ir::ValueKind::kConstant:
      return static_cast<const ir::Constant*>(value)->value();
    case ir::ValueKind::kGlobalVariable:
      return static_cast<Word>(image_->global_address(
          static_cast<const ir::GlobalVariable*>(value)));
    case ir::ValueKind::kFunction:
      return function_value(static_cast<const ir::Function*>(value));
    case ir::ValueKind::kArgument:
    case ir::ValueKind::kInstruction:
      // A value whose def never executed in this frame reads 0. MiniIR is
      // not strictly SSA-verified for dominance; reading 0 mirrors the
      // "uninitialized data" hint the dynamic race verifier reports.
      return regs[value->slot()];
  }
  return 0;
}

void Machine::set_result(Word* regs, const ir::Instruction* instr,
                         Word value) {
  if (!instr->type().is_void()) regs[instr->slot()] = value;
}

Frame& Machine::enter_function(Thread& thread, const ir::Function* callee,
                               const ir::Instruction* call_site) {
  Frame frame;
  frame.function = callee;
  frame.block = callee->entry();
  frame.call_site = call_site;
  frame.serial = next_frame_serial_++;
  frame.ctx = contexts_.push(
      thread.frames().empty() ? kNoContext : thread.top().ctx, callee,
      call_site);
  return thread.push_frame(frame, callee->slot_count());
}

void Machine::call(Thread& thread, const ir::Function* callee,
                   const ir::Instruction* call_site, std::size_t first) {
  Frame& frame = enter_function(thread, callee, call_site);
  // The push may have moved the register stack: look both frames up anew.
  Word* regs = thread.registers(frame);
  const Word* caller_regs = thread.registers(thread.frames().end()[-2]);
  const std::size_t count = std::min(callee->arguments().size(),
                                     call_site->operand_count() - first);
  for (std::size_t i = 0; i < count; ++i) {
    regs[callee->argument(i)->slot()] =
        value_of(caller_regs, call_site->operand(first + i));
  }
}

void Machine::return_from_function(Thread& thread, std::optional<Word> value) {
  const std::uint64_t serial = thread.top().serial;
  const ir::Instruction* call_site = thread.top().call_site;
  memory_.pop_frame(serial);
  thread.pop_frame();
  if (thread.frames().empty()) {
    finish_thread(thread);
    return;
  }
  Frame& caller = thread.top();
  if (call_site != nullptr && value.has_value()) {
    set_result(thread.registers(caller), call_site, *value);
  }
  ++caller.index;  // move past the call site
}

void Machine::jump(Word* regs, Frame& frame, const ir::BasicBlock* target) {
  frame.prev_block = frame.block;
  frame.block = target;
  frame.index = 0;
  // Parallel-copy semantics for the block's leading phis: read all incoming
  // values against the old register state, then commit.
  phi_values_.clear();
  for (const auto& instr : target->instructions()) {
    if (instr->opcode() != ir::Opcode::kPhi) break;
    Word chosen = 0;
    for (std::size_t i = 0; i < instr->phi_blocks().size(); ++i) {
      if (instr->phi_blocks()[i] == frame.prev_block) {
        chosen = value_of(regs, instr->phi_values()[i]);
        break;
      }
    }
    phi_values_.push_back(chosen);
  }
  for (std::size_t i = 0; i < phi_values_.size(); ++i) {
    regs[target->instructions()[i]->slot()] = phi_values_[i];
  }
}

void Machine::finish_thread(Thread& thread) {
  thread.clear_frames();
  set_state(thread, ThreadState::kFinished);
  notify_sync(thread.id(), Observer::SyncKind::kThreadFinish, thread.id());
  // Wake joiners.
  for (Thread& t : threads_) {
    if (t.state() == ThreadState::kWaitingJoin &&
        t.join_target == thread.id()) {
      set_state(t, ThreadState::kRunnable);
    }
  }
}

Word Machine::do_load(Thread& thread, const ir::Instruction* instr,
                      Address addr) {
  Word value = 0;
  const MemFault fault = memory_.load(addr, value);
  if (fault != MemFault::kNone) {
    report_fault(thread, instr, fault, addr);
    if (fault != MemFault::kUseAfterFree) return 0;
    // A dangling read still observes the stale memory, which is what the
    // SSDB/Chrome exploits rely on.
    value = memory_.load_raw(addr);
  }
  return value;
}

void Machine::do_store(Thread& thread, const ir::Instruction* instr,
                       Address addr, Word value) {
  const MemFault fault = memory_.store(addr, value);
  if (fault != MemFault::kNone) {
    report_fault(thread, instr, fault, addr);
  }
}

void Machine::report_fault(Thread& thread, const ir::Instruction* instr,
                           MemFault fault, Address addr) {
  SecurityEventKind kind = SecurityEventKind::kOutOfBounds;
  switch (fault) {
    case MemFault::kNullDeref: kind = SecurityEventKind::kNullPtrDeref; break;
    case MemFault::kUseAfterFree:
      kind = SecurityEventKind::kUseAfterFree;
      break;
    case MemFault::kDoubleFree: kind = SecurityEventKind::kDoubleFree; break;
    case MemFault::kOutOfBounds:
    case MemFault::kBadFree:
      kind = SecurityEventKind::kOutOfBounds;
      break;
    case MemFault::kNone: return;
  }
  const MemObject* obj = memory_.find_object(addr);
  std::string detail = "addr=" + std::to_string(addr);
  if (obj != nullptr && !obj->name.empty()) {
    detail += " object=";
    detail += obj->name;
  }
  emit_event(kind, thread, instr, std::move(detail));
}

void Machine::emit_event(SecurityEventKind kind, Thread& thread,
                         const ir::Instruction* instr, std::string detail) {
  if (security_events_.size() >= kMaxSecurityEvents) return;
  SecurityEvent event;
  event.kind = kind;
  event.tid = thread.id();
  event.instr = instr;
  event.detail = std::move(detail);
  security_events_.push_back(std::move(event));
}

void Machine::notify_access(const Observer::Access& access) {
  if (fault_injector_ != nullptr && fault_injector_->truncate_events()) {
    return;  // injected truncation: observers miss this event
  }
  if (observers_.empty()) return;
  // Stamp the accessing thread's interned calling context so observers can
  // defer call-stack materialization (notify runs before the frame index
  // advances, so the top frame is still at `access.instr`).
  Observer::Access stamped = access;
  if (const Thread* t = thread(access.tid)) {
    stamped.context = t->context();
  }
  for (Observer* obs : observers_) obs->on_access(stamped, *this);
}

void Machine::notify_sync(ThreadId tid, Observer::SyncKind kind,
                          Address addr) {
  if (fault_injector_ != nullptr && fault_injector_->truncate_events()) {
    return;
  }
  const Observer::Sync sync{tid, kind, addr};
  for (Observer* obs : observers_) obs->on_sync(sync, *this);
}

void Machine::execute(Thread& thread) {
  thread.skip_breakpoint_once = false;
  Frame& frame = thread.top();
  Word* regs = thread.registers(frame);
  const ir::Instruction* instr = frame.current();
  assert(instr != nullptr);
  const ThreadId tid = thread.id();

  using ir::Opcode;
  switch (instr->opcode()) {
    // --- arithmetic / logic ---
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kUDiv:
    case Opcode::kSDiv:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kLShr: {
      const Word a = value_of(regs, instr->operand(0));
      const Word b = value_of(regs, instr->operand(1));
      const auto ua = static_cast<std::uint64_t>(a);
      const auto ub = static_cast<std::uint64_t>(b);
      std::uint64_t r = 0;
      switch (instr->opcode()) {
        case Opcode::kAdd: r = ua + ub; break;
        case Opcode::kSub:
          r = ua - ub;
          // Unsigned-counter underflow monitor: both operands in the small
          // non-negative domain but the difference wraps — the Apache-46215
          // "busiest thread ever" value (§8.4).
          if (a >= 0 && b >= 0 && a < (1LL << 62) && b < (1LL << 62) &&
              static_cast<Word>(r) < 0) {
            emit_event(SecurityEventKind::kIntegerUnderflow, thread, instr,
                       str_format("%lld - %lld wrapped to %llu",
                                  static_cast<long long>(a),
                                  static_cast<long long>(b),
                                  static_cast<unsigned long long>(r)));
          }
          break;
        case Opcode::kMul: r = ua * ub; break;
        case Opcode::kUDiv: r = ub == 0 ? 0 : ua / ub; break;
        case Opcode::kSDiv: r = b == 0 ? 0 : static_cast<std::uint64_t>(a / b); break;
        case Opcode::kAnd: r = ua & ub; break;
        case Opcode::kOr: r = ua | ub; break;
        case Opcode::kXor: r = ua ^ ub; break;
        case Opcode::kShl: r = ub >= 64 ? 0 : ua << ub; break;
        case Opcode::kLShr: r = ub >= 64 ? 0 : ua >> ub; break;
        default: break;
      }
      set_result(regs, instr, static_cast<Word>(r));
      ++frame.index;
      break;
    }
    case Opcode::kICmp: {
      const Word a = value_of(regs, instr->operand(0));
      const Word b = value_of(regs, instr->operand(1));
      const auto ua = static_cast<std::uint64_t>(a);
      const auto ub = static_cast<std::uint64_t>(b);
      bool r = false;
      switch (instr->predicate()) {
        case ir::CmpPredicate::kEq: r = a == b; break;
        case ir::CmpPredicate::kNe: r = a != b; break;
        case ir::CmpPredicate::kSLt: r = a < b; break;
        case ir::CmpPredicate::kSLe: r = a <= b; break;
        case ir::CmpPredicate::kSGt: r = a > b; break;
        case ir::CmpPredicate::kSGe: r = a >= b; break;
        case ir::CmpPredicate::kULt: r = ua < ub; break;
        case ir::CmpPredicate::kULe: r = ua <= ub; break;
        case ir::CmpPredicate::kUGt: r = ua > ub; break;
        case ir::CmpPredicate::kUGe: r = ua >= ub; break;
      }
      set_result(regs, instr, r ? 1 : 0);
      ++frame.index;
      break;
    }

    // --- memory ---
    case Opcode::kAlloca: {
      const Address base =
          memory_.allocate(ObjectKind::kStack,
                           static_cast<std::uint64_t>(instr->imm()), 0,
                           instr->name(), frame.serial);
      set_result(regs, instr, static_cast<Word>(base));
      ++frame.index;
      break;
    }
    case Opcode::kMalloc: {
      Word cells = value_of(regs, instr->operand(0));
      if (cells <= 0) cells = 1;
      const Address base = memory_.allocate(
          ObjectKind::kHeap, static_cast<std::uint64_t>(cells), 0,
          instr->name());
      set_result(regs, instr, static_cast<Word>(base));
      ++frame.index;
      break;
    }
    case Opcode::kFree: {
      const Address addr =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      const MemFault fault = memory_.free_heap(addr);
      if (fault != MemFault::kNone) report_fault(thread, instr, fault, addr);
      ++frame.index;
      break;
    }
    case Opcode::kLoad: {
      const Address addr =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      const Word value = do_load(thread, instr, addr);
      set_result(regs, instr, value);
      notify_access({tid, instr, addr, value, /*is_write=*/false,
                     /*is_atomic=*/false});
      ++frame.index;
      break;
    }
    case Opcode::kStore: {
      const Word value = value_of(regs, instr->operand(0));
      const Address addr =
          static_cast<Address>(value_of(regs, instr->operand(1)));
      do_store(thread, instr, addr, value);
      notify_access({tid, instr, addr, value, /*is_write=*/true,
                     /*is_atomic=*/false});
      ++frame.index;
      break;
    }
    case Opcode::kGep: {
      const Word base = value_of(regs, instr->operand(0));
      const Word offset = value_of(regs, instr->operand(1));
      set_result(regs, instr, base + offset * 8);
      ++frame.index;
      break;
    }

    // --- control flow ---
    case Opcode::kBr: {
      const Word cond = value_of(regs, instr->operand(0));
      jump(regs, frame, cond != 0 ? instr->targets()[0] : instr->targets()[1]);
      break;
    }
    case Opcode::kJmp:
      jump(regs, frame, instr->targets()[0]);
      break;
    case Opcode::kPhi:
      // Value was committed by jump(); the phi itself is a no-op step.
      ++frame.index;
      break;
    case Opcode::kCall: {
      const ir::Function* callee = instr->callee();
      if (!callee->has_body()) {
        // External function: opaque, returns 0.
        set_result(regs, instr, 0);
        ++frame.index;
        break;
      }
      call(thread, callee, instr, /*first=*/0);
      break;
    }
    case Opcode::kCallPtr: {
      const Word target = value_of(regs, instr->operand(0));
      if (target == 0) {
        emit_event(SecurityEventKind::kNullFuncPtrDeref, thread, instr,
                   "indirect call through NULL function pointer");
        set_result(regs, instr, 0);
        ++frame.index;
        break;
      }
      const ir::Function* callee = resolve_function(target);
      if (callee == nullptr || !callee->has_body()) {
        emit_event(SecurityEventKind::kArbitraryCodeExec, thread, instr,
                   "indirect call to non-function value " +
                       std::to_string(target));
        set_result(regs, instr, 0);
        ++frame.index;
        break;
      }
      call(thread, callee, instr, /*first=*/1);
      break;
    }
    case Opcode::kRet: {
      std::optional<Word> value;
      if (instr->operand_count() == 1) {
        value = value_of(regs, instr->operand(0));
      }
      return_from_function(thread, value);
      break;
    }

    // --- concurrency ---
    case Opcode::kLock: {
      const Address addr =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      MutexState& mutex = mutexes_[addr];
      if (mutex.held) {
        set_state(thread, ThreadState::kBlockedOnLock);
        thread.blocked_mutex = addr;
        mutex.waiters.push_back(tid);
        // Do not advance: the instruction re-executes after wakeup.
        break;
      }
      mutex.held = true;
      mutex.owner = tid;
      notify_sync(tid, Observer::SyncKind::kLockAcquire, addr);
      ++frame.index;
      break;
    }
    case Opcode::kUnlock: {
      const Address addr =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      MutexState& mutex = mutexes_[addr];
      mutex.held = false;
      mutex.owner = 0;
      notify_sync(tid, Observer::SyncKind::kLockRelease, addr);
      for (ThreadId waiter : mutex.waiters) {
        if (waiter < threads_.size() &&
            threads_[waiter].state() == ThreadState::kBlockedOnLock) {
          set_state(threads_[waiter], ThreadState::kRunnable);
        }
      }
      mutex.waiters.clear();
      ++frame.index;
      break;
    }
    case Opcode::kThreadCreate: {
      const Word arg = value_of(regs, instr->operand(0));
      const ThreadId child = spawn(instr->callee(), arg);
      // spawn may have moved every thread: `thread`, `frame` and `regs`
      // are stale, so look this thread up again.
      Thread& self = threads_[tid];
      set_result(self.registers(self.top()), instr, static_cast<Word>(child));
      notify_sync(tid, Observer::SyncKind::kThreadCreate, child);
      ++self.top().index;
      break;
    }
    case Opcode::kThreadJoin: {
      const auto target =
          static_cast<ThreadId>(value_of(regs, instr->operand(0)));
      const Thread* joined = this->thread(target);
      if (joined == nullptr || joined->finished()) {
        notify_sync(tid, Observer::SyncKind::kThreadJoin, target);
        ++frame.index;
        break;
      }
      set_state(thread, ThreadState::kWaitingJoin);
      thread.join_target = target;
      break;  // re-executes after the target finishes
    }
    case Opcode::kAtomicRMWAdd: {
      const Address addr =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      const Word delta = value_of(regs, instr->operand(1));
      const Word old = do_load(thread, instr, addr);
      do_store(thread, instr, addr, old + delta);
      set_result(regs, instr, old);
      notify_access({tid, instr, addr, old + delta, /*is_write=*/true,
                     /*is_atomic=*/true});
      ++frame.index;
      break;
    }
    case Opcode::kHbRelease: {
      const Address addr =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      notify_sync(tid, Observer::SyncKind::kHbRelease, addr);
      ++frame.index;
      break;
    }
    case Opcode::kHbAcquire: {
      const Address addr =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      notify_sync(tid, Observer::SyncKind::kHbAcquire, addr);
      ++frame.index;
      break;
    }

    // --- environment ---
    case Opcode::kInput: {
      const Word index = value_of(regs, instr->operand(0));
      Word value = 0;
      if (index >= 0 &&
          static_cast<std::size_t>(index) < options_.inputs.size()) {
        value = options_.inputs[static_cast<std::size_t>(index)];
      }
      set_result(regs, instr, value);
      ++frame.index;
      break;
    }
    case Opcode::kIoDelay: {
      const Word ticks = value_of(regs, instr->operand(0));
      if (ticks > 0) {
        thread.wake_tick = tick_ + static_cast<std::uint64_t>(ticks);
        set_state(thread, ThreadState::kSleeping);
      }
      ++frame.index;
      break;
    }
    case Opcode::kYield:
      ++frame.index;
      break;
    case Opcode::kPrint:
      prints_.push_back(value_of(regs, instr->operand(0)));
      ++frame.index;
      break;

    // --- vulnerable-site intrinsics ---
    case Opcode::kStrCpy: {
      const Address dst =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      const Address src =
          static_cast<Address>(value_of(regs, instr->operand(1)));
      // Measure the source string (cells until a 0 cell).
      std::uint64_t len = 0;
      while (len < kStrCpyCap && memory_.load_raw(src + len * 8) != 0) {
        ++len;
      }
      const std::uint64_t room = memory_.cells_until_end(dst);
      if (room == 0) {
        report_fault(thread, instr,
                     dst < 4096 ? MemFault::kNullDeref : MemFault::kOutOfBounds,
                     dst);
      } else if (len + 1 > room) {
        emit_event(SecurityEventKind::kBufferOverflow, thread, instr,
                   str_format("strcpy of %llu cells into %llu-cell buffer",
                              static_cast<unsigned long long>(len + 1),
                              static_cast<unsigned long long>(room)));
      }
      // The copy happens regardless — overflowing writes corrupt whatever
      // lies beyond the destination, exactly like the real attacks.
      for (std::uint64_t i = 0; i <= len; ++i) {
        memory_.store_raw(dst + i * 8,
                          i < len ? memory_.load_raw(src + i * 8) : 0);
      }
      notify_access({tid, instr, src, static_cast<Word>(len),
                     /*is_write=*/false, /*is_atomic=*/false});
      notify_access({tid, instr, dst, static_cast<Word>(len),
                     /*is_write=*/true, /*is_atomic=*/false});
      ++frame.index;
      break;
    }
    case Opcode::kMemCopy: {
      const Address dst =
          static_cast<Address>(value_of(regs, instr->operand(0)));
      const Address src =
          static_cast<Address>(value_of(regs, instr->operand(1)));
      Word len = value_of(regs, instr->operand(2));
      if (len < 0) len = 0;
      if (static_cast<std::uint64_t>(len) > kStrCpyCap) {
        len = static_cast<Word>(kStrCpyCap);
      }
      const std::uint64_t room = memory_.cells_until_end(dst);
      if (static_cast<std::uint64_t>(len) > room) {
        emit_event(SecurityEventKind::kBufferOverflow, thread, instr,
                   str_format("memcpy of %lld cells into %llu-cell space",
                              static_cast<long long>(len),
                              static_cast<unsigned long long>(room)));
      }
      for (Word i = 0; i < len; ++i) {
        memory_.store_raw(dst + static_cast<Address>(i) * 8,
                          memory_.load_raw(src + static_cast<Address>(i) * 8));
      }
      notify_access({tid, instr, src, len, /*is_write=*/false,
                     /*is_atomic=*/false});
      notify_access({tid, instr, dst, len, /*is_write=*/true,
                     /*is_atomic=*/false});
      ++frame.index;
      break;
    }
    case Opcode::kSetUid: {
      const Word uid = value_of(regs, instr->operand(0));
      setuids_.push_back({tid, uid});
      if (uid == 0 && !options_.authorized_root) {
        emit_event(SecurityEventKind::kPrivilegeEscalation, thread, instr,
                   "unauthorized setuid(0)");
      }
      ++frame.index;
      break;
    }
    case Opcode::kFileAccess: {
      // The access(2)-style check always reports "permitted"; the TOCTOU
      // window is modelled by what happens between this and file_open.
      set_result(regs, instr, 1);
      ++frame.index;
      break;
    }
    case Opcode::kFileOpen: {
      const Word path_id = value_of(regs, instr->operand(0));
      const Word fd = next_fd_++;
      file_opens_.push_back({tid, path_id, fd});
      set_result(regs, instr, fd);
      ++frame.index;
      break;
    }
    case Opcode::kFileWrite: {
      const Word fd = value_of(regs, instr->operand(0));
      // Descriptor-stability monitor: a write site that always used one
      // descriptor suddenly using another means the fd cell was corrupted —
      // the Apache-25520 HTML-integrity signature (§8.4, Fig. 7).
      auto [it, inserted] = first_fd_at_.try_emplace(instr, fd);
      if (!inserted && it->second != fd) {
        emit_event(SecurityEventKind::kDataLeak, thread, instr,
                   str_format("write site switched from fd %lld to fd %lld",
                              static_cast<long long>(it->second),
                              static_cast<long long>(fd)));
      }
      const Address payload =
          static_cast<Address>(value_of(regs, instr->operand(1)));
      Word len = value_of(regs, instr->operand(2));
      if (len < 0) len = 0;
      if (len > 4096) len = 4096;
      FileWriteRecord record;
      record.tid = tid;
      record.fd = fd;
      record.instr = instr;
      for (Word i = 0; i < len; ++i) {
        record.payload.push_back(
            memory_.load_raw(payload + static_cast<Address>(i) * 8));
      }
      file_writes_.push_back(std::move(record));
      ++frame.index;
      break;
    }
    case Opcode::kFork: {
      set_result(regs, instr, next_pid_++);
      ++frame.index;
      break;
    }
    case Opcode::kEval: {
      evals_.push_back({tid, value_of(regs, instr->operand(0))});
      ++frame.index;
      break;
    }
  }
}

}  // namespace owl::interp
