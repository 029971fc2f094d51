// The simulated multithreaded machine executing MiniIR.
//
// This is the substrate under everything dynamic in OWL: the race detectors
// observe its memory/sync events, the verifiers drive it through the
// debugger, and the exploit drivers read its security-event log to decide
// whether an attack succeeded. One Machine = one program execution under
// one scheduler with one input vector.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.hpp"
#include "interp/context.hpp"
#include "interp/debugger.hpp"
#include "interp/memory.hpp"
#include "interp/scheduler.hpp"
#include "interp/thread.hpp"
#include "support/fault_injector.hpp"
#include "support/status.hpp"

namespace owl::interp {

/// Security-relevant consequences, i.e. what "the attack succeeded" means
/// for each class of concurrency attack in the study (§3, §8.4).
enum class SecurityEventKind {
  kNullPtrDeref,       ///< data pointer: Linux uselib-style kernel oops
  kNullFuncPtrDeref,   ///< function pointer: Fig. 2 / Fig. 6 line 347
  kArbitraryCodeExec,  ///< control transferred to a non-function address
  kBufferOverflow,     ///< write past an object: Libsafe Fig. 1, Apache Fig. 7
  kUseAfterFree,       ///< SSDB Fig. 6, Chrome
  kDoubleFree,         ///< Apache-2.0.48, MySQL-5.1.35
  kOutOfBounds,        ///< access to unmapped memory
  kPrivilegeEscalation,///< unauthorized setuid(0): MySQL-24988, Linux-2.6.29
  kIntegerUnderflow,   ///< unsigned counter wrapped: Apache-46215 Fig. 8
  kDataLeak,           ///< payload written to a corrupted file descriptor
  kDeadlock,           ///< no runnable thread while some are blocked
};

std::string_view security_event_kind_name(SecurityEventKind kind) noexcept;

struct SecurityEvent {
  SecurityEventKind kind;
  ThreadId tid = 0;
  const ir::Instruction* instr = nullptr;
  CallStack stack;
  std::string detail;  ///< free-form: object names, values, overflow sizes

  std::string to_string() const;
};

/// Side-effect records the exploit predicates consume.
struct FileOpenRecord {
  ThreadId tid;
  Word path_id;
  Word fd;
};
struct FileWriteRecord {
  ThreadId tid;
  Word fd;
  std::vector<Word> payload;
  const ir::Instruction* instr;
};
struct EvalRecord {
  ThreadId tid;
  Word command_id;
};
struct SetUidRecord {
  ThreadId tid;
  Word uid;
};

class Machine;

/// Observation hooks for dynamic analyses (the race detectors).
class Observer {
 public:
  virtual ~Observer() = default;

  struct Access {
    ThreadId tid;
    const ir::Instruction* instr;
    Address addr;
    Word value;        ///< value read, or value being written
    bool is_write;
    bool is_atomic;
    /// Interned calling context of the accessing thread at the moment of
    /// the access (see ContextTree). Together with `instr` it reproduces
    /// the thread's call stack without snapshotting it eagerly.
    ContextId context = kNoContext;
  };

  enum class SyncKind {
    kLockAcquire,
    kLockRelease,
    kHbRelease,
    kHbAcquire,
    kThreadCreate,  ///< addr field carries the child thread id
    kThreadFinish,
    kThreadJoin,    ///< addr field carries the joined thread id
  };

  struct Sync {
    ThreadId tid;
    SyncKind kind;
    Address addr;  ///< mutex / sync address, or a thread id for create/join
  };

  virtual void on_access(const Access& access, const Machine& machine) = 0;
  virtual void on_sync(const Sync& sync, const Machine& machine) = 0;
};

struct MachineOptions {
  std::vector<Word> inputs;          ///< workload input vector (kInput)
  std::uint64_t max_steps = 2'000'000;
  bool authorized_root = false;      ///< setuid(0) legal for this run?
};

enum class StopReason {
  kAllFinished,
  kBreakpoint,   ///< a thread just suspended on a debugger breakpoint
  kDeadlock,
  kStepBudget,
  kAllSuspended, ///< only suspended/blocked threads remain (verifier's turn)
};

struct RunResult {
  StopReason reason = StopReason::kAllFinished;
  std::uint64_t steps = 0;
  /// Set when reason == kBreakpoint.
  std::optional<ThreadId> break_thread;
  BreakpointId break_id = 0;
};

/// A module's starting machine state, built once and shared read-only by
/// every machine on the module: the globals laid out and initialised in
/// module order, the global address table and the function-id index. The
/// module must outlive the image and pass ir::verify_module.
class MachineImage {
 public:
  explicit MachineImage(const ir::Module& module);

  const ir::Module& module() const noexcept { return *module_; }
  /// The address space holding the globals at their initial values.
  const Memory& memory() const noexcept { return memory_; }
  Address global_address(const ir::GlobalVariable* global) const;
  /// The function whose value id is `value`, or nullptr.
  const ir::Function* resolve_function(Word value) const;

 private:
  const ir::Module* module_;
  Memory memory_;
  std::unordered_map<const ir::GlobalVariable*, Address> global_addr_;
  std::unordered_map<std::uint64_t, const ir::Function*> functions_by_id_;
};

class Machine {
 public:
  /// Starts from a copy of `image`'s memory; the image's module must
  /// outlive the machine.
  Machine(std::shared_ptr<const MachineImage> image, MachineOptions options);
  /// One-shot: builds an image of `module` for this machine alone.
  Machine(const ir::Module& module, MachineOptions options);

  // --- setup ---
  /// Spawns the initial thread at `entry` (no arguments). Must be called
  /// once before run().
  ThreadId start(const ir::Function* entry);
  /// Spawns an extra root thread (workloads with several entry points).
  ThreadId spawn(const ir::Function* entry, Word arg);

  void add_observer(Observer* observer) { observers_.push_back(observer); }
  void set_debugger(Debugger* debugger) noexcept { debugger_ = debugger; }
  /// Attaches the resilience layer's fault-injection harness (may be null).
  /// The machine probes it for scheduler stalls, breakpoint livelocks, and
  /// event-stream truncation; see support/fault_injector.hpp.
  void set_fault_injector(support::FaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }

  // --- execution ---
  /// Runs under `scheduler` until a stop condition. Can be called again
  /// after a breakpoint stop (resume the thread first).
  RunResult run(Scheduler& scheduler);

  /// Makes a suspended thread runnable again. With `skip_breakpoint_once`
  /// the pending instruction executes even though its breakpoint is armed.
  Status resume_thread(ThreadId tid, bool skip_breakpoint_once = true);

  // --- inspection ---
  const ir::Module& module() const noexcept { return image_->module(); }
  Memory& memory() noexcept { return memory_; }
  const Memory& memory() const noexcept { return memory_; }

  const std::vector<std::unique_ptr<Thread>>& threads() const noexcept {
    return threads_;
  }
  Thread* thread(ThreadId tid);
  const Thread* thread(ThreadId tid) const;

  std::uint64_t tick() const noexcept { return tick_; }

  /// The interned calling-context tree for this execution (grows as frames
  /// are pushed; ids stay valid for the machine's lifetime).
  const ContextTree& contexts() const noexcept { return contexts_; }

  /// Base address of a global (laid out by the image).
  Address global_address(const ir::GlobalVariable* global) const;
  Address global_address(std::string_view name) const;

  /// Reads a global's first cell (test/bench convenience).
  Word read_global(std::string_view name) const;

  /// Evaluates `value` in the context of `tid`'s innermost frame — what the
  /// operand *would* hold if the pending instruction executed now. The race
  /// verifier uses this to confirm two suspended threads are about to touch
  /// the same address (the "racing moment", §5.2).
  Word eval_in_thread(ThreadId tid, const ir::Value* value) const;

  /// Resolves a runtime word to a function (function "pointers" are value
  /// ids); nullptr if the word designates no function.
  const ir::Function* resolve_function(Word value) const;
  /// The runtime word representing &function.
  Word function_value(const ir::Function* function) const;

  // --- consequence log ---
  const std::vector<SecurityEvent>& security_events() const noexcept {
    return security_events_;
  }
  bool has_event(SecurityEventKind kind) const noexcept;
  const std::vector<FileOpenRecord>& file_opens() const noexcept {
    return file_opens_;
  }
  const std::vector<FileWriteRecord>& file_writes() const noexcept {
    return file_writes_;
  }
  const std::vector<EvalRecord>& evals() const noexcept { return evals_; }
  const std::vector<SetUidRecord>& setuids() const noexcept {
    return setuids_;
  }
  const std::vector<Word>& prints() const noexcept { return prints_; }

 private:
  struct MutexState {
    ThreadId owner = 0;
    bool held = false;
    std::vector<ThreadId> waiters;
  };

  /// Refills runnable_ with the threads that may step now, in id order.
  void collect_runnable();

  // Core interpreter: executes one instruction of `thread`.
  void execute(Thread& thread);
  Word value_of(const Frame& frame, const ir::Value* value) const;
  void set_result(Frame& frame, const ir::Instruction* instr, Word value);
  void enter_function(Thread& thread, const ir::Function* callee,
                      const std::vector<Word>& args,
                      const ir::Instruction* call_site);
  void return_from_function(Thread& thread, std::optional<Word> value);
  void jump(Frame& frame, const ir::BasicBlock* target);
  void finish_thread(Thread& thread);

  // Memory access with fault-to-event translation.
  Word do_load(Thread& thread, const ir::Instruction* instr, Address addr);
  void do_store(Thread& thread, const ir::Instruction* instr, Address addr,
                Word value);
  void report_fault(Thread& thread, const ir::Instruction* instr,
                    MemFault fault, Address addr);

  void emit_event(SecurityEventKind kind, Thread& thread,
                  const ir::Instruction* instr, std::string detail);
  void notify_access(const Observer::Access& access);
  void notify_sync(ThreadId tid, Observer::SyncKind kind, Address addr);

  std::shared_ptr<const MachineImage> image_;
  MachineOptions options_;
  Memory memory_;
  ContextTree contexts_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<Observer*> observers_;
  Debugger* debugger_ = nullptr;
  support::FaultInjector* fault_injector_ = nullptr;

  std::unordered_map<Address, MutexState> mutexes_;
  std::vector<ThreadId> runnable_;  ///< run()'s per-step buffer

  std::uint64_t tick_ = 0;
  std::uint64_t steps_ = 0;
  std::vector<ThreadId> unannounced_;
  std::uint64_t next_frame_serial_ = 1;
  /// Descriptor-stability monitor: first fd each write site used.
  std::unordered_map<const ir::Instruction*, Word> first_fd_at_;
  Word next_fd_ = 3;
  Word next_pid_ = 1000;
  std::optional<std::pair<ThreadId, BreakpointId>> pending_break_;

  std::vector<SecurityEvent> security_events_;
  std::vector<FileOpenRecord> file_opens_;
  std::vector<FileWriteRecord> file_writes_;
  std::vector<EvalRecord> evals_;
  std::vector<SetUidRecord> setuids_;
  std::vector<Word> prints_;
};

/// Builds one fresh, ready-to-run machine per call (threads spawned,
/// inputs set). The factory owns nothing after returning.
using MachineFactory = std::function<std::unique_ptr<Machine>()>;

/// Fresh machines from `image` under `options`, each started at `entry`.
/// `module` is the image's module: the factory shares it, so the module
/// lives as long as any copy of the factory does.
MachineFactory machine_factory(std::shared_ptr<const ir::Module> module,
                               std::shared_ptr<const MachineImage> image,
                               const ir::Function* entry,
                               MachineOptions options);

}  // namespace owl::interp
