// Unit tests for the schedulers (determinism, fairness, priority), and
// seeded runs of a racy program: the same seed repeats an execution,
// different seeds can diverge.
#include <gtest/gtest.h>

#include <set>

#include "interp/machine.hpp"
#include "interp/scheduler.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"

namespace owl::interp {
namespace {

TEST(RoundRobinTest, CyclesThroughRunnable) {
  RoundRobinScheduler sched;
  const std::vector<ThreadId> runnable{1, 2, 3};
  EXPECT_EQ(sched.pick(runnable, 0), 1u);
  EXPECT_EQ(sched.pick(runnable, 1), 2u);
  EXPECT_EQ(sched.pick(runnable, 2), 3u);
  EXPECT_EQ(sched.pick(runnable, 3), 1u);  // wraps
}

TEST(RoundRobinTest, SkipsMissingThreads) {
  RoundRobinScheduler sched;
  EXPECT_EQ(sched.pick({0, 4}, 0), 4u);  // after 0 comes 4
  EXPECT_EQ(sched.pick({0, 4}, 1), 0u);
}

TEST(RandomSchedulerTest, DeterministicPerSeed) {
  RandomScheduler a(42);
  RandomScheduler b(42);
  const std::vector<ThreadId> runnable{0, 1, 2, 3};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.pick(runnable, i), b.pick(runnable, i));
  }
}

TEST(RandomSchedulerTest, CoversAllThreads) {
  RandomScheduler sched(7);
  const std::vector<ThreadId> runnable{0, 1, 2};
  std::set<ThreadId> seen;
  for (int i = 0; i < 100; ++i) seen.insert(sched.pick(runnable, i));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RandomSchedulerTest, DifferentSeedsDifferentSchedules) {
  RandomScheduler a(1);
  RandomScheduler b(2);
  const std::vector<ThreadId> runnable{0, 1, 2, 3, 4, 5, 6, 7};
  int differ = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.pick(runnable, i) != b.pick(runnable, i)) ++differ;
  }
  EXPECT_GT(differ, 10);
}

TEST(PctTest, StrictPriorityUntilChangePoint) {
  PctScheduler sched(3, /*depth=*/1, /*expected_steps=*/1000);
  sched.on_thread_created(0);
  sched.on_thread_created(1);
  sched.on_thread_created(2);
  const std::vector<ThreadId> runnable{0, 1, 2};
  // With depth 1 there are no change points: the same top-priority thread
  // wins every step while runnable.
  const ThreadId first = sched.pick(runnable, 0);
  for (int i = 1; i < 50; ++i) {
    EXPECT_EQ(sched.pick(runnable, i), first);
  }
}

TEST(PctTest, ChangePointDemotesRunningThread) {
  PctScheduler sched(3, /*depth=*/2, /*expected_steps=*/10);
  sched.on_thread_created(0);
  sched.on_thread_created(1);
  const std::vector<ThreadId> runnable{0, 1};
  std::set<ThreadId> seen;
  for (int i = 0; i < 40; ++i) seen.insert(sched.pick(runnable, i));
  // After the change point the other thread must get to run.
  EXPECT_EQ(seen.size(), 2u);
}

TEST(PctTest, FallsBackWhenTopThreadBlocked) {
  PctScheduler sched(9, 1, 100);
  sched.on_thread_created(0);
  sched.on_thread_created(1);
  const ThreadId top = sched.pick({0, 1}, 0);
  const ThreadId other = top == 0 ? 1 : 0;
  EXPECT_EQ(sched.pick({other}, 1), other);
}

TEST(PriorityTest, AlwaysPicksHighestListed) {
  PriorityScheduler sched({3, 1, 0});
  EXPECT_EQ(sched.pick({0, 1, 3}, 0), 3u);
  EXPECT_EQ(sched.pick({0, 1}, 1), 1u);
  EXPECT_EQ(sched.pick({0}, 2), 0u);
  // Unlisted threads run only when nothing listed is runnable.
  EXPECT_EQ(sched.pick({7}, 3), 7u);
}

// --- seeded runs of a racy program ---

std::unique_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  auto m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

// A racy program whose outcome genuinely depends on the schedule.
const char* kRacy = R"(module racy
global @x
global @y
func @w1() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  %v = load @x
  %v2 = add %v, 1
  store %v2, @x
  %u = load @y
  store %v2, @y
  %n = add %i, 1
  %c = icmp slt %n, 15
  br %c, loop, out
out:
  ret
}
func @main() {
entry:
  %a = thread_create @w1, 0
  %b = thread_create @w1, 0
  thread_join %a
  thread_join %b
  %f = load @x
  print %f
  %g = load @y
  print %g
  ret
}
)";

struct Outcome {
  std::uint64_t steps;
  std::vector<Word> prints;
  Word x;
  Word y;
  std::size_t events;

  bool operator==(const Outcome&) const = default;
};

Outcome run_with(const ir::Module& m, Scheduler& scheduler) {
  Machine machine(m, {});
  machine.start(m.find_function("main"));
  const RunResult result = machine.run(scheduler);
  return {result.steps, machine.prints(), machine.read_global("x"),
          machine.read_global("y"), machine.security_events().size()};
}

TEST(ReplayTest, DifferentSchedulesCanDiverge) {
  auto m = parse_ok(kRacy);
  // Not guaranteed for every pair, but across a handful of seeds the racy
  // counter should produce at least two distinct final values — otherwise
  // the program wouldn't be racy and a same-seed repeat would be vacuous.
  std::set<Word> finals;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomScheduler sched(seed);
    finals.insert(run_with(*m, sched).x);
  }
  EXPECT_GE(finals.size(), 2u);
}

TEST(ReplayTest, PctSameSeedRepeatsExecution) {
  // PCT assigns priorities in on_thread_created, which the machine calls
  // for every spawned thread: two runs under one seed are identical.
  auto m = parse_ok(kRacy);
  PctScheduler first(5, 3, 1000);
  PctScheduler second(5, 3, 1000);
  EXPECT_EQ(run_with(*m, first), run_with(*m, second));
}

}  // namespace
}  // namespace owl::interp
