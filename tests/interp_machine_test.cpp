// Unit tests for the MiniIR machine: instruction semantics, threading,
// locking, security events, breakpoints, and machines sharing one image.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "interp/debugger.hpp"
#include "interp/machine.hpp"
#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "workloads/registry.hpp"

namespace owl::interp {
namespace {

std::unique_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  auto m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

RunResult run_main(Machine& machine, const ir::Module& m) {
  machine.start(m.find_function("main"));
  RoundRobinScheduler sched;
  return machine.run(sched);
}

TEST(MachineTest, ArithmeticAndPrint) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  %a = add 2, 3
  %b = mul %a, 4
  %c = sub %b, 1
  %d = udiv %c, 2
  %e = and %d, 6
  %f = or %e, 1
  %g = xor %f, 2
  %h = shl %g, 1
  %i = lshr %h, 1
  print %i
  ret
}
)");
  Machine machine(*m, {});
  EXPECT_EQ(run_main(machine, *m).reason, StopReason::kAllFinished);
  ASSERT_EQ(machine.prints().size(), 1u);
  // ((2+3)*4-1)/2=9; 9&6=0... step by step: 9&6 = 0b1001 & 0b0110 = 0;
  // 0|1=1; 1^2=3; 3<<1=6; 6>>1=3.
  EXPECT_EQ(machine.prints()[0], 3);
}

TEST(MachineTest, DivisionByZeroYieldsZero) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  %a = udiv 5, 0
  %b = sdiv 5, 0
  print %a
  print %b
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_EQ(machine.prints()[0], 0);
  EXPECT_EQ(machine.prints()[1], 0);
}

TEST(MachineTest, ComparisonsSignedAndUnsigned) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  %a = icmp slt -1, 0
  %b = icmp ult -1, 0
  %c = icmp uge -1, 1
  print %a
  print %b
  print %c
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_EQ(machine.prints()[0], 1);  // signed: -1 < 0
  EXPECT_EQ(machine.prints()[1], 0);  // unsigned: max >= 0
  EXPECT_EQ(machine.prints()[2], 1);  // unsigned max >= 1
}

TEST(MachineTest, GlobalLoadStoreAndGep) {
  auto m = parse_ok(R"(module t
global @arr [4]
func @main() {
entry:
  %p = gep @arr, 2
  store 77, %p
  %v = load %p
  print %v
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_EQ(machine.prints()[0], 77);
  EXPECT_EQ(machine.memory().load_raw(machine.global_address("arr") + 16), 77);
}

TEST(MachineTest, LoopWithPhi) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  %n = add %i, 1
  %c = icmp slt %n, 5
  br %c, loop, out
out:
  print %n
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_EQ(machine.prints()[0], 5);
}

TEST(MachineTest, CallAndReturnValue) {
  auto m = parse_ok(R"(module t
func @twice(i64 %x) -> i64 {
entry:
  %r = mul %x, 2
  ret %r
}
func @main() {
entry:
  %v = call @twice(21)
  print %v
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_EQ(machine.prints()[0], 42);
}

// ---- register semantics ----

TEST(MachineTest, PhisSwapValuesAroundALoop) {
  // Both phis read the values from before the jump (a parallel copy), so
  // %a and %b trade places on every back edge.
  auto m = parse_ok(R"(module t
func @main() {
entry:
  jmp loop
loop:
  %a = phi [1, entry], [%b, loop]
  %b = phi [2, entry], [%a, loop]
  %i = phi [0, entry], [%n, loop]
  print %a
  print %b
  %n = add %i, 1
  %c = icmp slt %n, 3
  br %c, loop, out
out:
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_EQ(machine.prints(), (std::vector<Word>{1, 2, 2, 1, 1, 2}));
}

TEST(MachineTest, UseOfAnUnexecutedDefReadsZero) {
  auto m = parse_ok(R"(module t
func @f(i64 %flag) {
entry:
  br %flag, set, join
set:
  %v = add 7, 0
  jmp join
join:
  print %v
  ret
}
func @main() {
entry:
  %c = input 0
  br %c, set, join
set:
  %v = add 41, 1
  jmp join
join:
  print %v
  call @f(1)
  call @f(0)
  ret
}
)");
  for (const Word input : {0, 1}) {
    MachineOptions options;
    options.inputs = {input};
    Machine machine(*m, options);
    run_main(machine, *m);
    // The second call to @f skips the def its first call executed: a new
    // frame starts with every register at 0.
    EXPECT_EQ(machine.prints(),
              (std::vector<Word>{input == 0 ? 0 : 42, 7, 0}))
        << "input " << input;
  }
}

TEST(MachineTest, RecursiveCallKeepsCallerRegisters) {
  auto m = parse_ok(R"(module t
func @fact(i64 %n) -> i64 {
entry:
  %c = icmp sle %n, 1
  br %c, base, rec
base:
  ret 1
rec:
  %m = sub %n, 1
  %r = call @fact(%m)
  %p = mul %n, %r
  print %m
  ret %p
}
func @main() {
entry:
  %v = call @fact(5)
  print %v
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_EQ(machine.prints(), (std::vector<Word>{1, 2, 3, 4, 120}));
}

TEST(MachineTest, ThreadCreateThreeCallsDeepKeepsCallerRegisters) {
  auto m = parse_ok(R"(module t
global @x
func @child(i64 %arg) {
entry:
  %d = add %arg, 0
  store %d, @x
  ret
}
func @spawn3(i64 %a) -> i64 {
entry:
  %k = add %a, 100
  %t = thread_create @child, %k
  %u = thread_create @child, %k
  thread_join %u
  %after = add %k, 1
  print %after
  print %a
  ret %t
}
func @spawn2(i64 %a) -> i64 {
entry:
  %b = add %a, 10
  %t = call @spawn3(%b)
  print %b
  ret %t
}
func @spawn1(i64 %a) -> i64 {
entry:
  %b = add %a, 1
  %t = call @spawn2(%b)
  print %b
  ret %t
}
func @main() {
entry:
  %z = add 3, 0
  %t = call @spawn1(%z)
  thread_join %t
  %v = load @x
  print %z
  print %v
  print %t
  ret
}
)");
  for (const bool random : {false, true}) {
    Machine machine(*m, {});
    machine.start(m->find_function("main"));
    RoundRobinScheduler round_robin;
    RandomScheduler seeded(3);
    Scheduler& sched = random ? static_cast<Scheduler&>(seeded) : round_robin;
    EXPECT_EQ(machine.run(sched).reason, StopReason::kAllFinished);
    EXPECT_EQ(machine.prints(),
              (std::vector<Word>{115, 14, 14, 4, 3, 114, 1}))
        << (random ? "random" : "round-robin");
    EXPECT_EQ(machine.threads().size(), 3u);
  }
}

TEST(MachineTest, EvalInThreadReadsOnlyTheTopFramesFunction) {
  auto m = parse_ok(R"(module t
global @g
func @other(i64 %q) {
entry:
  %o = add %q, 1
  ret
}
func @work(i64 %arg) {
entry:
  %c = icmp ne %arg, 0
  br %c, body, skip
skip:
  %never = add %arg, 5
  jmp body
body:
  store %arg, @g
  ret
}
func @main() {
entry:
  call @other(4)
  call @work(9)
  ret
}
)");
  Machine machine(*m, {});
  machine.start(m->find_function("main"));
  Debugger debugger;
  machine.set_debugger(&debugger);
  const ir::Function* work = m->find_function("work");
  const ir::Function* other = m->find_function("other");
  debugger.add_breakpoint(work->find_block("body")->front());
  RoundRobinScheduler sched;
  ASSERT_EQ(machine.run(sched).reason, StopReason::kBreakpoint);

  EXPECT_EQ(machine.eval_in_thread(0, work->argument(0)), 9);
  EXPECT_EQ(machine.eval_in_thread(0, work->entry()->front()), 1);
  // %never's def did not execute on this path.
  EXPECT_EQ(machine.eval_in_thread(0, work->find_block("skip")->front()), 0);
  // @other ran before, but its values are not @work's.
  EXPECT_EQ(machine.eval_in_thread(0, other->argument(0)), 0);
  EXPECT_EQ(machine.eval_in_thread(0, other->entry()->front()), 0);
  // Values outside any frame evaluate as usual.
  EXPECT_EQ(machine.eval_in_thread(0, m->find_global("g")),
            static_cast<Word>(machine.global_address("g")));
}

TEST(MachineTest, ExternalCallReturnsZero) {
  auto m = parse_ok(R"(module t
func @ext() -> i64 external
func @main() {
entry:
  %v = call @ext()
  print %v
  ret
}
)");
  Machine machine(*m, {});
  EXPECT_EQ(run_main(machine, *m).reason, StopReason::kAllFinished);
  EXPECT_EQ(machine.prints()[0], 0);
}

TEST(MachineTest, InputsReadFromOptions) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  %a = input 0
  %b = input 1
  %c = input 9
  print %a
  print %b
  print %c
  ret
}
)");
  MachineOptions options;
  options.inputs = {11, 22};
  Machine machine(*m, options);
  run_main(machine, *m);
  EXPECT_EQ(machine.prints()[0], 11);
  EXPECT_EQ(machine.prints()[1], 22);
  EXPECT_EQ(machine.prints()[2], 0);  // out of range reads 0
}

TEST(MachineTest, ThreadCreateJoinOrdersEverything) {
  auto m = parse_ok(R"(module t
global @x
func @child(i64 %arg) {
entry:
  store %arg, @x
  ret
}
func @main() {
entry:
  %t = thread_create @child, 5
  thread_join %t
  %v = load @x
  print %v
  ret
}
)");
  Machine machine(*m, {});
  EXPECT_EQ(run_main(machine, *m).reason, StopReason::kAllFinished);
  EXPECT_EQ(machine.prints()[0], 5);
  EXPECT_EQ(machine.threads().size(), 2u);
}

TEST(MachineTest, MutexProvidesMutualExclusion) {
  auto m = parse_ok(R"(module t
global @mu
global @ctr
func @worker(i64 %n) {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%in, loop]
  lock @mu
  %v = load @ctr
  %v2 = add %v, 1
  store %v2, @ctr
  unlock @mu
  %in = add %i, 1
  %c = icmp slt %in, 50
  br %c, loop, out
out:
  ret
}
func @main() {
entry:
  %t1 = thread_create @worker, 0
  %t2 = thread_create @worker, 0
  thread_join %t1
  thread_join %t2
  ret
}
)");
  MachineOptions options;
  Machine machine(*m, options);
  machine.start(m->find_function("main"));
  RandomScheduler sched(1234);
  EXPECT_EQ(machine.run(sched).reason, StopReason::kAllFinished);
  EXPECT_EQ(machine.read_global("ctr"), 100);
}

TEST(MachineTest, DeadlockDetected) {
  auto m = parse_ok(R"(module t
global @a
global @b
func @t1() {
entry:
  lock @a
  yield
  lock @b
  unlock @b
  unlock @a
  ret
}
func @t2() {
entry:
  lock @b
  yield
  lock @a
  unlock @a
  unlock @b
  ret
}
func @main() {
entry:
  %x = thread_create @t1, 0
  %y = thread_create @t2, 0
  thread_join %x
  thread_join %y
  ret
}
)");
  Machine machine(*m, {});
  machine.start(m->find_function("main"));
  // Round-robin interleaves the two lock acquisitions -> deadlock.
  RoundRobinScheduler sched;
  const RunResult run = machine.run(sched);
  EXPECT_EQ(run.reason, StopReason::kDeadlock);
  EXPECT_TRUE(machine.has_event(SecurityEventKind::kDeadlock));
}

TEST(MachineTest, AtomicAddReturnsOldValue) {
  auto m = parse_ok(R"(module t
global @ctr [1] = 10
func @main() {
entry:
  %old = atomic_add @ctr, 5
  print %old
  %v = load @ctr
  print %v
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_EQ(machine.prints()[0], 10);
  EXPECT_EQ(machine.prints()[1], 15);
}

TEST(MachineTest, IoDelayAdvancesSimulatedTime) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  io_delay 100
  ret
}
)");
  Machine machine(*m, {});
  const RunResult run = run_main(machine, *m);
  EXPECT_EQ(run.reason, StopReason::kAllFinished);
  EXPECT_GE(machine.tick(), 100u);  // fast-forwarded through the sleep
  EXPECT_LE(run.steps, 10u);        // without burning steps
}

TEST(MachineTest, StrcpyOverflowEventAndCorruption) {
  auto m = parse_ok(R"(module t
global @dst [2]
global @src [8]
func @main() {
entry:
  store 7, @src
  %p1 = gep @src, 1
  store 7, %p1
  %p2 = gep @src, 2
  store 7, %p2
  strcpy @dst, @src
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  ASSERT_TRUE(machine.has_event(SecurityEventKind::kBufferOverflow));
  // The copy really spilled: 3 cells + terminator into a 2-cell buffer.
  const Address dst = machine.global_address("dst");
  EXPECT_EQ(machine.memory().load_raw(dst), 7);
  EXPECT_EQ(machine.memory().load_raw(dst + 8), 7);
  EXPECT_EQ(machine.memory().load_raw(dst + 16), 7);  // red zone clobbered
}

TEST(MachineTest, StrcpyWithinBoundsIsQuiet) {
  auto m = parse_ok(R"(module t
global @dst [4]
global @src [4]
func @main() {
entry:
  store 9, @src
  strcpy @dst, @src
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_TRUE(machine.security_events().empty());
  EXPECT_EQ(machine.memory().load_raw(machine.global_address("dst")), 9);
}

TEST(MachineTest, NullFuncPtrDeref) {
  auto m = parse_ok(R"(module t
global @fp
func @main() {
entry:
  %f = load @fp
  %r = callptr %f()
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_TRUE(machine.has_event(SecurityEventKind::kNullFuncPtrDeref));
}

TEST(MachineTest, WildFuncPtrIsArbitraryCodeExec) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  %r = callptr 999983()
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_TRUE(machine.has_event(SecurityEventKind::kArbitraryCodeExec));
}

TEST(MachineTest, ValidFuncPtrDispatches) {
  auto m = parse_ok(R"(module t
global @fp
func @target() -> i64 {
entry:
  ret 88
}
func @main() {
entry:
  %f = load @fp
  %r = callptr %f()
  print %r
  ret
}
)");
  // Wire the global to the function id at runtime.
  Machine machine(*m, {});
  machine.memory().store_raw(machine.global_address("fp"),
                             machine.function_value(m->find_function("target")));
  run_main(machine, *m);
  EXPECT_TRUE(machine.security_events().empty());
  EXPECT_EQ(machine.prints()[0], 88);
}

TEST(MachineTest, UnauthorizedSetuidZero) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  setuid 0
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_TRUE(machine.has_event(SecurityEventKind::kPrivilegeEscalation));
  ASSERT_EQ(machine.setuids().size(), 1u);
  EXPECT_EQ(machine.setuids()[0].uid, 0);
}

TEST(MachineTest, AuthorizedSetuidZeroIsQuiet) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  setuid 0
  ret
}
)");
  MachineOptions options;
  options.authorized_root = true;
  Machine machine(*m, options);
  run_main(machine, *m);
  EXPECT_FALSE(machine.has_event(SecurityEventKind::kPrivilegeEscalation));
}

TEST(MachineTest, FileOpsRecorded) {
  auto m = parse_ok(R"(module t
global @payload [2] = 5
func @main() {
entry:
  %a = file_access 7
  %fd = file_open 7
  file_write %fd, @payload, 2
  print %fd
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  ASSERT_EQ(machine.file_opens().size(), 1u);
  EXPECT_EQ(machine.file_opens()[0].fd, 3);  // fds start at 3
  ASSERT_EQ(machine.file_writes().size(), 1u);
  EXPECT_EQ(machine.file_writes()[0].fd, 3);
  EXPECT_EQ(machine.file_writes()[0].payload, (std::vector<Word>{5, 5}));
}

TEST(MachineTest, UseAfterFreeAndDoubleFree) {
  auto m = parse_ok(R"(module t
global @p
func @main() {
entry:
  %m = malloc 2
  store 3, %m
  free %m
  %v = load %m
  print %v
  free %m
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_TRUE(machine.has_event(SecurityEventKind::kUseAfterFree));
  EXPECT_TRUE(machine.has_event(SecurityEventKind::kDoubleFree));
  EXPECT_EQ(machine.prints()[0], 3);  // dangling read sees stale data
}

TEST(MachineTest, StackObjectDiesWithFrame) {
  auto m = parse_ok(R"(module t
global @leak
func @escape() {
entry:
  %buf = alloca 2
  store %buf, @leak
  ret
}
func @main() {
entry:
  call @escape()
  %p = load @leak
  %v = load %p
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  EXPECT_TRUE(machine.has_event(SecurityEventKind::kUseAfterFree));
}

TEST(MachineTest, StepBudgetStopsRunaway) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  jmp loop
loop:
  jmp loop
}
)");
  MachineOptions options;
  options.max_steps = 1000;
  Machine machine(*m, options);
  machine.start(m->find_function("main"));
  RoundRobinScheduler sched;
  EXPECT_EQ(machine.run(sched).reason, StopReason::kStepBudget);
}

TEST(MachineTest, EvalAndForkRecorded) {
  auto m = parse_ok(R"(module t
func @main() {
entry:
  %pid = fork
  eval 1337
  print %pid
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  ASSERT_EQ(machine.evals().size(), 1u);
  EXPECT_EQ(machine.evals()[0].command_id, 1337);
  EXPECT_GE(machine.prints()[0], 1000);
}

TEST(MachineTest, IntegerUnderflowMonitor) {
  auto m = parse_ok(R"(module iu
func @main() {
entry:
  %a = sub 0, 1
  %b = sub 5, 3
  %c = sub -4, 2
  print %a
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  // Only the small-non-negative wrap (0 - 1) trips the monitor; ordinary
  // subtraction and signed arithmetic on negatives do not.
  std::size_t underflows = 0;
  for (const SecurityEvent& event : machine.security_events()) {
    if (event.kind == SecurityEventKind::kIntegerUnderflow) ++underflows;
  }
  EXPECT_EQ(underflows, 1u);
  EXPECT_EQ(machine.prints()[0], -1);
}

TEST(MachineTest, DescriptorStabilityMonitor) {
  auto m = parse_ok(R"(module ds
global @payload [1] = 7
global @fd_cell
func @flush() {
entry:
  %fd = load @fd_cell
  file_write %fd, @payload, 1
  ret
}
func @main() {
entry:
  %log = file_open 1
  store %log, @fd_cell
  call @flush()
  call @flush()
  %html = file_open 2
  store %html, @fd_cell
  call @flush()
  ret
}
)");
  Machine machine(*m, {});
  run_main(machine, *m);
  // Writes 1 and 2 use the same fd (quiet); write 3 switches descriptors —
  // the Apache-25520 corruption signature.
  std::size_t leaks = 0;
  for (const SecurityEvent& event : machine.security_events()) {
    if (event.kind == SecurityEventKind::kDataLeak) ++leaks;
  }
  EXPECT_EQ(leaks, 1u);
}

// ---- debugger / breakpoints ----

TEST(DebuggerTest, BreakpointSuspendsOnlyThatThread) {
  auto m = parse_ok(R"(module t
global @x
global @y
func @writer() {
entry:
  store 1, @x
  ret
}
func @other() {
entry:
  store 2, @y
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @other, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  Machine machine(*m, {});
  machine.start(m->find_function("main"));
  Debugger debugger;
  machine.set_debugger(&debugger);
  const ir::Instruction* store_x =
      m->find_function("writer")->entry()->front();
  debugger.add_breakpoint(store_x);

  RoundRobinScheduler sched;
  const RunResult first = machine.run(sched);
  ASSERT_EQ(first.reason, StopReason::kBreakpoint);
  ASSERT_TRUE(first.break_thread.has_value());
  // While the writer is suspended, everything else finishes.
  const RunResult second = machine.run(sched);
  EXPECT_EQ(second.reason, StopReason::kAllSuspended);
  EXPECT_EQ(machine.read_global("y"), 2);
  EXPECT_EQ(machine.read_global("x"), 0);  // writer still parked

  ASSERT_TRUE(machine.resume_thread(*first.break_thread).is_ok());
  EXPECT_EQ(machine.run(sched).reason, StopReason::kAllFinished);
  EXPECT_EQ(machine.read_global("x"), 1);
}

TEST(DebuggerTest, ThreadSpecificBreakpointIgnoresOthers) {
  auto m = parse_ok(R"(module t
global @ctr
func @bump() {
entry:
  %v = load @ctr
  %v2 = add %v, 1
  store %v2, @ctr
  ret
}
func @main() {
entry:
  %a = thread_create @bump, 0
  %b = thread_create @bump, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  Machine machine(*m, {});
  machine.start(m->find_function("main"));
  Debugger debugger;
  machine.set_debugger(&debugger);
  const ir::Instruction* load_instr =
      m->find_function("bump")->entry()->front();
  // Restrict to thread 2 (the second bump thread).
  debugger.add_breakpoint(load_instr, ThreadId{2});

  RoundRobinScheduler sched;
  const RunResult stop = machine.run(sched);
  ASSERT_EQ(stop.reason, StopReason::kBreakpoint);
  EXPECT_EQ(*stop.break_thread, 2u);
  // Thread 1 passes the same instruction unimpeded and finishes while
  // thread 2 stays parked.
  const RunResult drained = machine.run(sched);
  EXPECT_EQ(drained.reason, StopReason::kAllSuspended);
  EXPECT_EQ(machine.read_global("ctr"), 1);
}

TEST(DebuggerTest, EvalInThreadSeesPendingOperands) {
  auto m = parse_ok(R"(module t
global @arr [4]
func @main() {
entry:
  %p = gep @arr, 3
  store 5, %p
  ret
}
)");
  Machine machine(*m, {});
  machine.start(m->find_function("main"));
  Debugger debugger;
  machine.set_debugger(&debugger);
  const ir::BasicBlock* entry = m->find_function("main")->entry();
  const ir::Instruction* store_instr = entry->instructions()[1].get();
  debugger.add_breakpoint(store_instr);
  RoundRobinScheduler sched;
  const RunResult stop = machine.run(sched);
  ASSERT_EQ(stop.reason, StopReason::kBreakpoint);
  // The store's address operand evaluates to &arr[3] at the stop.
  const Word addr = machine.eval_in_thread(0, store_instr->operand(1));
  EXPECT_EQ(static_cast<Address>(addr), machine.global_address("arr") + 24);
}

TEST(DebuggerTest, RemoveAndDisable) {
  Debugger debugger;
  ir::Module m("t");
  ir::IRBuilder b(&m);
  ir::Function* f = m.add_function("f", ir::Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  const ir::Instruction* i = b.ret();

  const BreakpointId id = debugger.add_breakpoint(i);
  EXPECT_NE(debugger.match(0, i), nullptr);
  debugger.set_enabled(id, false);
  EXPECT_EQ(debugger.match(0, i), nullptr);
  debugger.set_enabled(id, true);
  EXPECT_NE(debugger.match(0, i), nullptr);
}

TEST(MachineTest, CallStackShape) {
  auto m = parse_ok(R"(module t
global @g
func @inner() {
entry:
  %v = load @g
  ret
}
func @outer() {
entry:
  call @inner()
  ret
}
func @main() {
entry:
  call @outer()
  ret
}
)");
  Machine machine(*m, {});
  machine.start(m->find_function("main"));
  Debugger debugger;
  machine.set_debugger(&debugger);
  const ir::Instruction* load_instr =
      m->find_function("inner")->entry()->front();
  debugger.add_breakpoint(load_instr);
  RoundRobinScheduler sched;
  ASSERT_EQ(machine.run(sched).reason, StopReason::kBreakpoint);

  const CallStack stack = machine.thread(0)->call_stack();
  ASSERT_EQ(stack.size(), 3u);
  EXPECT_EQ(stack[0].function->name(), "main");
  EXPECT_EQ(stack[1].function->name(), "outer");
  EXPECT_EQ(stack[2].function->name(), "inner");
  EXPECT_EQ(stack[2].instr, load_instr);
  // Outer frames report their call sites.
  EXPECT_EQ(stack[1].instr->opcode(), ir::Opcode::kCall);
}

// --- MachineImage: one prepared starting state shared by many machines ---

TEST(MachineImageTest, MachinesFromOneImageShareNoState) {
  auto m = parse_ok(R"(module t
global @g [2] = 7
global @h [1] = 3
func @main() {
entry:
  store 42, @g
  %p = malloc 2
  store 5, %p
  free %p
  %s = alloca 1
  store 9, %s
  print %p
  print %s
  ret
}
)");
  const auto image = std::make_shared<const MachineImage>(*m);
  const std::size_t globals = image->memory().object_count();
  Machine first(image, {});
  Machine second(image, {});
  run_main(first, *m);
  ASSERT_EQ(first.prints().size(), 2u);
  const auto heap = static_cast<Address>(first.prints()[0]);
  const auto stack = static_cast<Address>(first.prints()[1]);

  // The first machine's store, malloc/free and alloca stay in its memory.
  EXPECT_EQ(first.read_global("g"), 42);
  EXPECT_EQ(first.memory().object_count(), globals + 2);
  ASSERT_NE(first.memory().find_object(heap), nullptr);
  EXPECT_TRUE(first.memory().find_object(heap)->freed);
  EXPECT_EQ(second.read_global("g"), 7);
  EXPECT_EQ(second.memory().load_raw(second.global_address("g") + 8), 7);
  EXPECT_EQ(second.read_global("h"), 3);
  EXPECT_EQ(second.memory().object_count(), globals);
  EXPECT_EQ(second.memory().find_object(heap), nullptr);
  EXPECT_EQ(second.memory().find_object(stack), nullptr);
  EXPECT_EQ(image->memory().load_raw(image->global_address(
                m->find_global("g"))),
            7);
  EXPECT_EQ(image->memory().object_count(), globals);

  // The second machine then runs from the image's initial values to the
  // same addresses and results.
  run_main(second, *m);
  EXPECT_EQ(second.prints(), first.prints());
  EXPECT_EQ(second.read_global("g"), 42);
  Machine third(image, {});
  EXPECT_EQ(third.read_global("g"), 7);
  EXPECT_EQ(third.memory().bytes_allocated(),
            image->memory().bytes_allocated());
}

/// What a caller can observe of a run that stopped with `result`: stop
/// reason, steps, prints, security events, file writes, setuids and every
/// global's final cells.
std::string outcome_digest(const Machine& machine, const RunResult& result) {
  std::ostringstream out;
  out << "reason=" << static_cast<int>(result.reason)
      << " steps=" << result.steps << "\nprints:";
  for (const Word value : machine.prints()) out << ' ' << value;
  for (const SecurityEvent& event : machine.security_events()) {
    out << "\nevent " << event.to_string();
  }
  for (const FileWriteRecord& write : machine.file_writes()) {
    out << "\nwrite t" << write.tid << " fd" << write.fd << ':';
    for (const Word value : write.payload) out << ' ' << value;
  }
  for (const SetUidRecord& setuid : machine.setuids()) {
    out << "\nsetuid t" << setuid.tid << ' ' << setuid.uid;
  }
  for (const auto& global : machine.module().globals()) {
    out << "\n@" << global->name() << ':';
    const Address base = machine.global_address(global.get());
    for (std::uint64_t i = 0; i < global->cell_count(); ++i) {
      out << ' ' << machine.memory().load_raw(base + i * 8);
    }
  }
  return out.str();
}

/// The outcome of running `machine` from `entry` to its first stop.
std::string run_digest(Machine& machine, const ir::Function* entry,
                       Scheduler& scheduler) {
  machine.start(entry);
  return outcome_digest(machine, machine.run(scheduler));
}

/// A machine from an image that has already served another machine runs
/// exactly as a one-shot Machine(module, ...), under round-robin and a
/// seeded random schedule.
void expect_shared_image_matches_one_shot(const ir::Module& module,
                                          const ir::Function* entry,
                                          const MachineOptions& options,
                                          const std::string& label) {
  const auto image = std::make_shared<const MachineImage>(module);
  Machine earlier(image, options);
  RandomScheduler earlier_schedule(99);
  (void)run_digest(earlier, entry, earlier_schedule);
  for (const bool random : {false, true}) {
    const auto schedule = [random]() -> std::unique_ptr<Scheduler> {
      if (random) return std::make_unique<RandomScheduler>(7);
      return std::make_unique<RoundRobinScheduler>();
    };
    Machine shared(image, options);
    Machine one_shot(module, options);
    const auto shared_schedule = schedule();
    const auto one_shot_schedule = schedule();
    EXPECT_EQ(run_digest(shared, entry, *shared_schedule),
              run_digest(one_shot, entry, *one_shot_schedule))
        << label << (random ? " (random)" : " (round-robin)");
  }
}

TEST(MachineImageTest, SharedImageMatchesOneShotOnExamplesAndModels) {
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(OWL_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".mir") examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  ASSERT_GE(examples.size(), 16u);
  for (const auto& path : examples) {
    std::ifstream file(path);
    std::stringstream text;
    text << file.rdbuf();
    auto m = parse_ok(text.str());
    MachineOptions options;
    options.max_steps = 400'000;
    expect_shared_image_matches_one_shot(*m, m->find_function("main"), options,
                                         path.filename().string());
  }

  const std::vector<workloads::Workload> models = workloads::make_all({1.0});
  ASSERT_EQ(models.size(), 9u);
  for (const workloads::Workload& w : models) {
    for (const auto* inputs : {&w.testing_inputs, &w.exploit_inputs}) {
      MachineOptions options;
      options.inputs = *inputs;
      options.max_steps = w.max_steps;
      options.authorized_root = w.authorized_root;
      expect_shared_image_matches_one_shot(*w.module, w.entry, options,
                                           w.name);
    }
  }
}

/// What a paused machine holds: each thread's state, frames and top-frame
/// registers, the simulated time and every global's cells.
std::string state_digest(const Machine& machine) {
  std::ostringstream out;
  out << "tick " << machine.tick() << " prints " << machine.prints().size();
  for (const Thread& thread : machine.threads()) {
    out << "\nthread " << thread.id() << " state "
        << static_cast<int>(thread.state());
    for (const Frame& frame : thread.frames()) {
      out << ' ' << frame.function->name() << ':' << frame.block->label()
          << '.' << frame.index;
    }
    if (thread.frames().empty()) continue;
    const ir::Function* function = thread.top().function;
    out << " regs";
    for (const auto& arg : function->arguments()) {
      out << ' ' << machine.eval_in_thread(thread.id(), arg.get());
    }
    for (const auto& block : function->blocks()) {
      for (const auto& instr : block->instructions()) {
        out << ' ' << machine.eval_in_thread(thread.id(), instr.get());
      }
    }
  }
  for (const auto& global : machine.module().globals()) {
    out << "\n@" << global->name() << ':';
    const Address base = machine.global_address(global.get());
    for (std::uint64_t i = 0; i < global->cell_count(); ++i) {
      out << ' ' << machine.memory().load_raw(base + i * 8);
    }
  }
  return out.str();
}

/// Resumes every breakpoint stop until the run ends.
RunResult run_to_end(Machine& machine, Scheduler& scheduler) {
  RunResult result = machine.run(scheduler);
  while (result.reason == StopReason::kBreakpoint) {
    EXPECT_TRUE(machine.resume_thread(*result.break_thread).is_ok());
    result = machine.run(scheduler);
  }
  return result;
}

/// Stops a machine at a breakpoint partway through its run and copies it
/// and its scheduler. The copy runs to the end first: the original's state
/// must not move, so the two share no mutable memory. Then the original
/// runs to the end and must reach the same outcome.
template <typename Sched>
void expect_copy_continues_like_original(const ir::Module& module,
                                         const ir::Function* entry,
                                         const MachineOptions& options,
                                         const Sched& fresh,
                                         const std::string& label) {
  const auto image = std::make_shared<const MachineImage>(module);
  // Where to stop: a thread that is runnable or asleep, about to execute
  // halfway through an uninterrupted run.
  std::uint64_t full_steps = 0;
  {
    Machine full(image, options);
    Sched sched = fresh;
    full.start(entry);
    full_steps = full.run(sched).steps;
  }
  MachineOptions half = options;
  half.max_steps = std::max<std::uint64_t>(full_steps / 2, 1);
  Machine probe(image, half);
  Sched probe_sched = fresh;
  probe.start(entry);
  (void)probe.run(probe_sched);
  const Thread* stop_thread = nullptr;
  for (const Thread& thread : probe.threads()) {
    if ((thread.state() == ThreadState::kRunnable ||
         thread.state() == ThreadState::kSleeping) &&
        thread.next_instruction() != nullptr) {
      stop_thread = &thread;
      break;
    }
  }
  ASSERT_NE(stop_thread, nullptr) << label;

  Debugger debugger;
  debugger.add_breakpoint(stop_thread->next_instruction(), stop_thread->id());
  Machine original(image, options);
  original.set_debugger(&debugger);
  Sched original_sched = fresh;
  original.start(entry);
  const RunResult stop = original.run(original_sched);
  ASSERT_EQ(stop.reason, StopReason::kBreakpoint) << label;

  Machine copy = original;
  Sched copy_sched = original_sched;
  const std::string paused = state_digest(original);
  EXPECT_EQ(state_digest(copy), paused) << label;
  EXPECT_NE(&copy.memory(), &original.memory());

  ASSERT_TRUE(copy.resume_thread(*stop.break_thread).is_ok());
  const std::string copy_outcome =
      outcome_digest(copy, run_to_end(copy, copy_sched));
  EXPECT_EQ(state_digest(original), paused)
      << label << ": the copy's run changed the original";

  ASSERT_TRUE(original.resume_thread(*stop.break_thread).is_ok());
  EXPECT_EQ(outcome_digest(original, run_to_end(original, original_sched)),
            copy_outcome)
      << label;
}

void expect_copies_continue(const ir::Module& module,
                            const ir::Function* entry,
                            const MachineOptions& options,
                            const std::string& label) {
  expect_copy_continues_like_original(module, entry, options,
                                      RoundRobinScheduler{},
                                      label + " (round-robin)");
  expect_copy_continues_like_original(module, entry, options,
                                      RandomScheduler{7}, label + " (random)");
}

TEST(MachineImageTest, CopiedMachineContinuesLikeItsOriginal) {
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(OWL_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".mir") examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  ASSERT_GE(examples.size(), 16u);
  for (const auto& path : examples) {
    std::ifstream file(path);
    std::stringstream text;
    text << file.rdbuf();
    auto m = parse_ok(text.str());
    MachineOptions options;
    options.max_steps = 400'000;
    expect_copies_continue(*m, m->find_function("main"), options,
                           path.filename().string());
  }

  const std::vector<workloads::Workload> models = workloads::make_all({1.0});
  ASSERT_EQ(models.size(), 9u);
  for (const workloads::Workload& w : models) {
    MachineOptions options;
    options.inputs = w.exploit_inputs;
    options.max_steps = w.max_steps;
    options.authorized_root = w.authorized_root;
    expect_copies_continue(*w.module, w.entry, options, w.name);
  }
}

}  // namespace
}  // namespace owl::interp
