// Allocation gate for the interpreter's step loop. An unsteered exploit run
// of a workload model (noise scale 2, seed 1) may allocate per thread and
// per first use of a lock or calling context, but not per step: registers
// are slots in a per-thread stack and globals an indexed table.
//
// The file replaces the global operator new to count allocations, so it is
// an executable of its own: no other test, and no sanitizer build, sees
// the replacement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/pipeline.hpp"
#include "interp/machine.hpp"
#include "workloads/registry.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace owl {
namespace {

/// Heap allocations per interpreter step over one unsteered exploit run.
void expect_allocations_per_step_below(const workloads::Workload& w,
                                       double bound) {
  const interp::MachineFactory factory = w.target(/*seed=*/1).exploit_factory;
  const std::unique_ptr<interp::Machine> machine = factory();
  interp::RandomScheduler sched(/*seed=*/1);
  const std::uint64_t before = g_allocations.load();
  const interp::RunResult result = machine->run(sched);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_GT(result.steps, 0u);
  const double per_step =
      static_cast<double>(allocations) / static_cast<double>(result.steps);
  std::printf("%s: %llu allocations in %llu steps, %.4f per step\n",
              w.name.c_str(), static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(result.steps), per_step);
  EXPECT_LT(per_step, bound) << w.name << ": " << allocations
                             << " allocations in " << result.steps
                             << " steps";
}

TEST(AllocationGateTest, MemcachedUnsteeredRun) {
  expect_allocations_per_step_below(workloads::make_memcached({2.0}), 0.05);
}

TEST(AllocationGateTest, LinuxUnsteeredRun) {
  expect_allocations_per_step_below(workloads::make_linux({2.0}), 0.05);
}

// chrome spawns 11 threads in about 1,200 steps, and each thread's frame
// and register stacks allocate once.
TEST(AllocationGateTest, ChromeUnsteeredRun) {
  expect_allocations_per_step_below(workloads::make_chrome({2.0}), 0.1);
}

}  // namespace
}  // namespace owl
