// Micro-benchmarks (google-benchmark): interpreter throughput, detector
// overhead, vector-clock operations, and Algorithm 1 scaling with the
// length of the bug-to-attack propagation chain. These back the paper's
// "reasonable for in-house testing" performance claim (§8.2's A.C. column)
// with component-level numbers.
// The Parallel* benchmarks back BENCH_parallel.json (run with
// --benchmark_filter='Parallel' --benchmark_out=BENCH_parallel.json):
// ThreadPool dispatch overhead and Pipeline::run_many scaling with --jobs.
// Speedup is bounded by the host's core count — compare the jobs arguments
// against real_time on the recording machine.
#include <benchmark/benchmark.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/prescreen.hpp"
#include "analysis/static_info.hpp"
#include "core/pipeline.hpp"
#include "interp/machine.hpp"
#include "ir/builder.hpp"
#include "ir/loops.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "race/predict/sp_predictor.hpp"
#include "race/shadow_memory.hpp"
#include "race/tsan_detector.hpp"
#include "race/vector_clock.hpp"
#include "reference_detector.hpp"
#include "serve/service_core.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "vuln/analyzer.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace owl;

/// Two threads hammering a counter loop (`iters` iterations each).
std::unique_ptr<ir::Module> make_counter_module(std::int64_t iters) {
  auto m = std::make_unique<ir::Module>("perf");
  ir::IRBuilder b(m.get());
  ir::GlobalVariable* ctr = m->add_global("ctr");
  ir::Function* worker = m->add_function("worker", ir::Type::void_type());
  {
    ir::BasicBlock* entry = worker->add_block("entry");
    ir::BasicBlock* loop = worker->add_block("loop");
    ir::BasicBlock* out = worker->add_block("out");
    b.set_insert_point(entry);
    b.jmp(loop);
    b.set_insert_point(loop);
    ir::Instruction* i = b.phi(ir::Type::i64(), "i");
    ir::Instruction* v = b.load(ctr);
    b.store(b.add(v, b.i64(1)), ctr);
    ir::Instruction* n = b.add(i, b.i64(1), "n");
    ir::Instruction* c =
        b.icmp(ir::CmpPredicate::kSLt, n, b.i64(iters), "c");
    b.br(c, loop, out);
    i->add_phi_incoming(b.i64(0), entry);
    i->add_phi_incoming(n, loop);
    b.set_insert_point(out);
    b.ret();
  }
  ir::Function* main_fn = m->add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    ir::Instruction* t1 = b.thread_create(worker, b.i64(0), "t1");
    ir::Instruction* t2 = b.thread_create(worker, b.i64(0), "t2");
    b.thread_join(t1);
    b.thread_join(t2);
    b.ret();
  }
  return m;
}

void BM_InterpreterThroughput(benchmark::State& state) {
  auto m = make_counter_module(2000);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    interp::Machine machine(*m, {});
    machine.start(m->find_function("main"));
    interp::RoundRobinScheduler sched;
    steps += machine.run(sched).steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

void BM_TsanDetectionOverhead(benchmark::State& state) {
  auto m = make_counter_module(2000);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    interp::Machine machine(*m, {});
    race::TsanDetector detector;
    machine.add_observer(&detector);
    machine.start(m->find_function("main"));
    interp::RoundRobinScheduler sched;
    steps += machine.run(sched).steps;
    benchmark::DoNotOptimize(detector.reports().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TsanDetectionOverhead);

// --- interpreter on the workload models (BENCH_interp.json) ----------------
// Run with --benchmark_filter='MachineFromImage|ModelRunUnsteered'. The
// `model` argument picks a model at noise scale 1: 0 = memcached (the
// race verifier's largest customer), 1 = linux (the largest image). Both
// go through the target's exploit factory, so they time what one race-
// verifier attempt pays: a machine from the target's shared image, then a
// whole run without breakpoints.

workloads::Workload interp_model(std::int64_t model) {
  return model == 0 ? workloads::make_memcached({1.0})
                    : workloads::make_linux({1.0});
}

void BM_MachineFromImage(benchmark::State& state) {
  const workloads::Workload w = interp_model(state.range(0));
  const interp::MachineFactory factory = w.target(/*seed=*/1).exploit_factory;
  for (auto _ : state) {
    benchmark::DoNotOptimize(factory());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_MachineFromImage)->ArgName("model")->Arg(0)->Arg(1);

void BM_ModelRunUnsteered(benchmark::State& state) {
  const workloads::Workload w = interp_model(state.range(0));
  const interp::MachineFactory factory = w.target(/*seed=*/1).exploit_factory;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    std::unique_ptr<interp::Machine> machine = factory();
    interp::RandomScheduler sched(/*seed=*/1);
    steps += machine->run(sched).steps;
  }
  state.SetLabel(w.name);
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelRunUnsteered)->ArgName("model")->Arg(0)->Arg(1);

// --- detection-substrate benches (BENCH_detector.json) ---------------------
// The fast-vs-reference numbers behind DESIGN.md §2's "fast substrate":
// run with --benchmark_filter='Detector|ShadowLookup|VectorClockJoin'.
// The `impl` argument selects the substrate: 0 = the test-only
// race::ReferenceDetector (tests/reference_detector.hpp: hash-map shadow,
// eager capture), 1 = the product race::TsanDetector (paged shadow, dense
// clocks, lazy capture). Both emit identical reports (the co-observer
// differential test proves it); these measure only the hot-path cost.

/// Calls `body(detector)` with the substrate the `impl` argument selects.
template <typename Body>
void with_detector(const benchmark::State& state, race::PrescreenView view,
                   Body&& body) {
  if (state.range(0) == 0) {
    race::ReferenceDetector detector(nullptr, false, view);
    body(detector);
  } else {
    race::TsanDetector detector(nullptr, false, view);
    body(detector);
  }
}

/// Fixture state for driving TsanDetector::on_access directly: a machine
/// with two spawned (never run) worker threads supplies real instruction
/// pointers, thread ids, and interned context ids.
struct DetectorBenchSetup {
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<interp::Machine> machine;
  const ir::Instruction* load = nullptr;
  const ir::Instruction* store = nullptr;
  interp::ContextId ctx1 = interp::kNoContext;
  interp::ContextId ctx2 = interp::kNoContext;

  DetectorBenchSetup() : module(make_counter_module(1)) {
    machine = std::make_unique<interp::Machine>(*module, interp::MachineOptions{});
    const ir::Function* worker = module->find_function("worker");
    machine->spawn(worker, 0);  // tid 0
    machine->spawn(worker, 0);  // tid 1
    ctx1 = machine->thread(0)->context();
    ctx2 = machine->thread(1)->context();
    for (const auto& block : worker->blocks()) {
      for (const auto& instr : block->instructions()) {
        if (instr->opcode() == ir::Opcode::kLoad) load = instr.get();
        if (instr->opcode() == ir::Opcode::kStore) store = instr.get();
      }
    }
  }

  interp::Observer::Access access(race::ThreadId tid, interp::Address addr,
                                  bool is_write) const {
    return {tid,      is_write ? store : load, addr, 1, is_write,
            /*is_atomic=*/false, tid == 0 ? ctx1 : ctx2};
  }
};

/// Two threads re-reading a shared working set — no races, the detector's
/// common case: every access after the first sweep replaces its thread's
/// read cell in place.
void BM_DetectorRead(benchmark::State& state) {
  const DetectorBenchSetup setup;
  with_detector(state, {}, [&](auto& detector) {
    constexpr std::uint64_t kAddrs = 256;
    const interp::Address base = 4096;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
      for (std::uint64_t i = 0; i < kAddrs; ++i) {
        const interp::Address addr = base + i * 8;
        detector.on_access(setup.access(0, addr, false), *setup.machine);
        detector.on_access(setup.access(1, addr, false), *setup.machine);
      }
      accesses += 2 * kAddrs;
    }
    benchmark::DoNotOptimize(detector.reports().size());
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
  });
}
BENCHMARK(BM_DetectorRead)->ArgName("impl")->Arg(0)->Arg(1);

/// Two threads rewriting disjoint halves of a working set — no races: every
/// access after the first sweep finds its own thread's write and no reads.
void BM_DetectorWrite(benchmark::State& state) {
  const DetectorBenchSetup setup;
  with_detector(state, {}, [&](auto& detector) {
    constexpr std::uint64_t kAddrs = 256;
    const interp::Address base = 4096;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
      for (std::uint64_t i = 0; i < kAddrs; ++i) {
        const interp::Address addr = base + i * 8;
        detector.on_access(setup.access(i % 2 == 0 ? 0 : 1, addr, true),
                           *setup.machine);
      }
      accesses += kAddrs;
    }
    benchmark::DoNotOptimize(detector.reports().size());
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
  });
}
BENCHMARK(BM_DetectorWrite)->ArgName("impl")->Arg(0)->Arg(1);

/// Pure shadow-container cost, isolated from detection logic: hash-map
/// lookup (impl 0, the reference's shape) vs paged direct-mapped lookup
/// (impl 1) over a deterministically shuffled working set. Addresses are
/// dense cell indexes — interp::Address numbers memory cells, not bytes —
/// sized past L2 residency so the map pays its node-chase cache misses.
void BM_ShadowLookup(benchmark::State& state) {
  const bool paged = state.range(0) != 0;
  constexpr std::uint64_t kAddrs = 16384;
  std::vector<interp::Address> addrs;
  addrs.reserve(kAddrs);
  std::uint64_t lcg = 12345;
  for (std::uint64_t i = 0; i < kAddrs; ++i) {
    addrs.push_back(4096 + i);
  }
  for (std::uint64_t i = kAddrs - 1; i > 0; --i) {  // deterministic shuffle
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(addrs[i], addrs[lcg % (i + 1)]);
  }
  race::PagedShadow paged_shadow;
  std::unordered_map<interp::Address, race::ShadowSlot> mapped_shadow;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    if (paged) {
      for (const interp::Address addr : addrs) {
        race::ShadowSlot& slot = paged_shadow.slot(addr);
        sum += ++slot.write.epoch;
      }
    } else {
      for (const interp::Address addr : addrs) {
        race::ShadowSlot& slot = mapped_shadow[addr];
        sum += ++slot.write.epoch;
      }
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kAddrs));
}
BENCHMARK(BM_ShadowLookup)->ArgName("impl")->Arg(0)->Arg(1);

/// Join into an empty clock: exercises the geometric reserve added for the
/// fast substrate (one allocation instead of per-component growth).
void BM_VectorClockJoinGrow(benchmark::State& state) {
  const auto threads = static_cast<race::ThreadId>(state.range(0));
  race::VectorClock b;
  for (race::ThreadId t = 0; t < threads; ++t) {
    b.set(t, t * 2 + 7);
  }
  for (auto _ : state) {
    race::VectorClock c;
    c.join(b);
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_VectorClockJoinGrow)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_VectorClockJoin(benchmark::State& state) {
  const auto threads = static_cast<race::ThreadId>(state.range(0));
  race::VectorClock a;
  race::VectorClock b;
  for (race::ThreadId t = 0; t < threads; ++t) {
    a.set(t, t * 3 + 1);
    b.set(t, t * 2 + 7);
  }
  for (auto _ : state) {
    race::VectorClock c = a;
    c.join(b);
    benchmark::DoNotOptimize(c.leq(a));
  }
}
BENCHMARK(BM_VectorClockJoin)->Arg(4)->Arg(16)->Arg(64);

/// Algorithm 1 over a data-flow chain of `depth` arithmetic hops ending in
/// a memcpy site: analysis time should scale linearly with the chain.
void BM_AnalyzerChainDepth(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  auto m = std::make_unique<ir::Module>("chain");
  ir::IRBuilder b(m.get());
  ir::GlobalVariable* src = m->add_global("src", 8);
  ir::GlobalVariable* dst = m->add_global("dst", 8);
  ir::GlobalVariable* racy = m->add_global("racy");
  ir::Function* f = m->add_function("f", ir::Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  ir::Instruction* v = b.load(racy, "v0");
  const ir::Instruction* read = v;
  for (std::int64_t i = 0; i < depth; ++i) {
    v = b.add(v, b.i64(1));
  }
  b.memcpy_(dst, src, v);
  b.ret();

  const vuln::VulnerabilityAnalyzer analyzer(*m);
  const interp::CallStack stack{{f, read}};
  for (auto _ : state) {
    const vuln::VulnAnalysis analysis = analyzer.analyze_from(read, stack);
    benchmark::DoNotOptimize(analysis.exploits.size());
  }
  state.counters["exploits"] = 1;
}
BENCHMARK(BM_AnalyzerChainDepth)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

/// Inter-procedural scaling: a call chain of `depth` functions forwarding
/// the corrupted value down to the site.
void BM_AnalyzerCallDepth(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  auto m = std::make_unique<ir::Module>("calls");
  ir::IRBuilder b(m.get());
  ir::GlobalVariable* src = m->add_global("src", 8);
  ir::GlobalVariable* dst = m->add_global("dst", 8);
  ir::GlobalVariable* racy = m->add_global("racy");

  ir::Function* leaf = m->add_function("leaf", ir::Type::void_type());
  leaf->add_argument(ir::Type::i64(), "n");
  b.set_insert_point(leaf->add_block("entry"));
  b.memcpy_(dst, src, leaf->argument(0));
  b.ret();

  ir::Function* prev = leaf;
  for (std::int64_t i = 0; i < depth; ++i) {
    ir::Function* next =
        m->add_function("hop" + std::to_string(i), ir::Type::void_type());
    next->add_argument(ir::Type::i64(), "n");
    b.set_insert_point(next->add_block("entry"));
    b.call(prev, {next->argument(0)});
    b.ret();
    prev = next;
  }
  ir::Function* f = m->add_function("f", ir::Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  ir::Instruction* read = b.load(racy, "v");
  b.call(prev, {read});
  b.ret();

  vuln::VulnerabilityAnalyzer::Options options;
  options.max_call_depth = static_cast<std::size_t>(depth) + 4;
  const vuln::VulnerabilityAnalyzer analyzer(*m, options);
  const interp::CallStack stack{{f, read}};
  for (auto _ : state) {
    const vuln::VulnAnalysis analysis = analyzer.analyze_from(read, stack);
    benchmark::DoNotOptimize(analysis.exploits.size());
  }
}
BENCHMARK(BM_AnalyzerCallDepth)->Arg(2)->Arg(8)->Arg(32);

/// ThreadPool fan-out overhead: dispatch `range(1)` near-empty slots on a
/// pool of `range(0)` threads in total. The floor every parallel stage
/// pays.
void BM_ParallelForDispatch(benchmark::State& state) {
  support::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const auto slots = static_cast<std::size_t>(state.range(1));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for(slots, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * slots));
}
BENCHMARK(BM_ParallelForDispatch)
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({4, 1024})
    ->UseRealTime();

/// Whole-pipeline target fan-out: Pipeline::run_many over 8 racy targets
/// with jobs = range(0). The speedup column of BENCH_parallel.json —
/// real_time(jobs=1) / real_time(jobs=N), bounded by host cores.
void BM_PipelineRunManyJobs(benchmark::State& state) {
  constexpr std::size_t kTargets = 8;
  std::vector<std::unique_ptr<ir::Module>> modules;
  std::vector<core::PipelineTarget> targets;
  for (std::size_t i = 0; i < kTargets; ++i) {
    modules.push_back(make_counter_module(300));
    core::PipelineTarget target;
    target.name = "perf-" + std::to_string(i);
    target.module = modules.back().get();
    const ir::Module* m = modules.back().get();
    target.factory = [m] {
      interp::MachineOptions options;
      options.max_steps = 100'000;
      auto machine = std::make_unique<interp::Machine>(*m, options);
      machine->start(m->find_function("main"));
      return machine;
    };
    target.seed = 17 * (i + 1);
    targets.push_back(std::move(target));
  }
  core::PipelineOptions options;
  options.jobs = static_cast<unsigned>(state.range(0));
  const core::Pipeline pipeline(options);
  for (auto _ : state) {
    const auto results = pipeline.run_many(targets);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kTargets));
}
BENCHMARK(BM_PipelineRunManyJobs)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ParserRoundTrip(benchmark::State& state) {
  auto source_module = make_counter_module(10);
  const std::string text = ir::print_module(*source_module);
  for (auto _ : state) {
    auto parsed = ir::parse_module(text);
    benchmark::DoNotOptimize(parsed.is_ok());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParserRoundTrip);

void BM_LoopAnalysis(benchmark::State& state) {
  auto m = make_counter_module(10);
  const ir::Function* worker = m->find_function("worker");
  for (auto _ : state) {
    const ir::LoopInfo loops(*worker);
    benchmark::DoNotOptimize(loops.loops().size());
  }
}
BENCHMARK(BM_LoopAnalysis);

// --------------------------------------------------------------------------
// Static-analysis engine (BENCH_static.json; --benchmark_filter=
// 'Andersen|Prescreen'): Andersen solve time, prescreen classification
// time, and the detector hot path when the prescreen prunes the access.
// --------------------------------------------------------------------------

/// A module exercising every solver constraint kind at scale: `funcs`
/// workers each alloca a private buffer, publish a gep'd interior pointer
/// through a per-worker global slot, read it back through two levels of
/// indirection, and dispatch through a function-pointer table.
std::unique_ptr<ir::Module> make_analysis_module(std::int64_t funcs) {
  auto m = std::make_unique<ir::Module>("static");
  ir::IRBuilder b(m.get());
  ir::GlobalVariable* slots =
      m->add_global("slots", static_cast<std::uint64_t>(funcs), 0);
  ir::GlobalVariable* fptrs =
      m->add_global("fptrs", static_cast<std::uint64_t>(funcs), 0);
  std::vector<ir::Function*> handlers;
  std::vector<ir::Function*> workers;
  for (std::int64_t i = 0; i < funcs; ++i) {
    ir::Function* handler = m->add_function("handler" + std::to_string(i),
                                            ir::Type::i64());
    handler->add_argument(ir::Type::ptr(), "p");
    b.set_insert_point(handler->add_block("entry"));
    b.ret(b.load(handler->argument(0), "v"));
    handlers.push_back(handler);
  }
  for (std::int64_t i = 0; i < funcs; ++i) {
    ir::Function* worker = m->add_function("worker" + std::to_string(i),
                                           ir::Type::void_type());
    b.set_insert_point(worker->add_block("entry"));
    ir::Instruction* buf = b.alloca_cells(4, "buf");
    ir::Instruction* slot = b.gep(slots, b.i64(i), "slot");
    b.store(b.gep(buf, b.i64(i % 4), "in"), slot);
    ir::Instruction* back = b.load(slot, "back");
    b.load(back, "deep");
    ir::Instruction* fslot = b.gep(fptrs, b.i64(i), "fslot");
    b.store(handlers[static_cast<std::size_t>(i)], fslot);
    b.callptr(b.load(fslot, "f"), {back}, "r");
    b.ret();
    workers.push_back(worker);
  }
  ir::Function* main_fn = m->add_function("main", ir::Type::void_type());
  b.set_insert_point(main_fn->add_block("entry"));
  for (ir::Function* worker : workers) b.call(worker, {});
  b.ret();
  return m;
}

void BM_AndersenSolve(benchmark::State& state) {
  const auto m = make_analysis_module(state.range(0));
  std::size_t nodes = 0;
  for (auto _ : state) {
    const analysis::PointsTo pt(*m);
    nodes = pt.stats().nodes;
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * nodes));
}
BENCHMARK(BM_AndersenSolve)->ArgName("funcs")->Arg(16)->Arg(64)->Arg(256);

void BM_PrescreenClassify(benchmark::State& state) {
  const auto m = make_analysis_module(state.range(0));
  const analysis::ModuleStatic ms(*m);
  std::size_t considered = 0;
  for (auto _ : state) {
    const analysis::Prescreen ps(*m, ms.points_to, ms.resolved_calls);
    considered = ps.considered_accesses();
    benchmark::DoNotOptimize(ps.no_race().size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * considered));
}
BENCHMARK(BM_PrescreenClassify)->ArgName("funcs")->Arg(16)->Arg(64)->Arg(256);

/// BM_DetectorRead's workload with the accesses statically cleared by the
/// prescreen: the pruned path skips shadow lookup and capture entirely, so
/// the gap to BM_DetectorRead is the payoff of a no_race verdict.
void BM_DetectorPrescreenedRead(benchmark::State& state) {
  const DetectorBenchSetup setup;
  const std::unordered_set<const ir::Instruction*> no_race{setup.load,
                                                           setup.store};
  const race::PrescreenView view{race::PrescreenMode::kOn, &no_race};
  with_detector(state, view, [&](auto& detector) {
    constexpr std::uint64_t kAddrs = 256;
    const interp::Address base = 4096;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
      for (std::uint64_t i = 0; i < kAddrs; ++i) {
        const interp::Address addr = base + i * 8;
        detector.on_access(setup.access(0, addr, false), *setup.machine);
        detector.on_access(setup.access(1, addr, false), *setup.machine);
      }
      accesses += 2 * kAddrs;
    }
    benchmark::DoNotOptimize(detector.reports().size());
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
  });
}
BENCHMARK(BM_DetectorPrescreenedRead)->ArgName("impl")->Arg(0)->Arg(1);

// --------------------------------------------------------------------------
// Memory-aware value flow (BENCH_valueflow.json;
// --benchmark_filter='ValueFlow|VulnFlow'): graph construction over the
// Andersen workload, and the Algorithm 1 walk when every propagation step
// crosses a store->load edge (DESIGN.md §14).
// --------------------------------------------------------------------------

void BM_ValueFlowBuild(benchmark::State& state) {
  const auto m = make_analysis_module(state.range(0));
  const analysis::ModuleStatic ms(*m);
  std::size_t edges = 0;
  for (auto _ : state) {
    const analysis::ValueFlowGraph graph(*m, ms.points_to,
                                         ms.resolved_calls);
    edges = graph.stats().def_use_edges + graph.stats().call_edges +
            graph.stats().mem_edges;
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * edges));
}
BENCHMARK(BM_ValueFlowBuild)->ArgName("funcs")->Arg(16)->Arg(64)->Arg(256);

/// One producer parks a racy index into `relays` memory slots; `relays`
/// consumers each load their slot and index a table with it. A single
/// analyze_from therefore fans out across `relays` store->load edges —
/// the walk cost is all flow-edge work, none of it register chasing.
std::unique_ptr<ir::Module> make_relay_module(std::int64_t relays) {
  auto m = std::make_unique<ir::Module>("relay");
  ir::IRBuilder b(m.get());
  ir::GlobalVariable* idx = m->add_global("idx", 1, 1);
  ir::GlobalVariable* table =
      m->add_global("table", static_cast<std::uint64_t>(relays) + 16, 0);
  std::vector<ir::GlobalVariable*> slots;
  for (std::int64_t i = 0; i < relays; ++i) {
    slots.push_back(m->add_global("slot" + std::to_string(i), 1, 1));
  }
  ir::Function* producer = m->add_function("producer", ir::Type::void_type());
  b.set_insert_point(producer->add_block("entry"));
  ir::Instruction* v = b.load(idx, "v");
  for (ir::GlobalVariable* slot : slots) b.store(v, slot);
  b.ret();
  std::vector<ir::Function*> consumers;
  for (std::int64_t i = 0; i < relays; ++i) {
    ir::Function* consumer = m->add_function(
        "consumer" + std::to_string(i), ir::Type::void_type());
    b.set_insert_point(consumer->add_block("entry"));
    ir::Instruction* index =
        b.load(slots[static_cast<std::size_t>(i)], "i");
    b.store(b.i64(7), b.gep(table, index, "p"));
    b.ret();
    consumers.push_back(consumer);
  }
  ir::Function* main_fn = m->add_function("main", ir::Type::void_type());
  b.set_insert_point(main_fn->add_block("entry"));
  b.call(producer, {});
  for (ir::Function* consumer : consumers) b.call(consumer, {});
  b.ret();
  return m;
}

void BM_VulnFlowWalk(benchmark::State& state) {
  const auto m = make_relay_module(state.range(0));
  const analysis::ModuleStatic ms(*m);
  const analysis::ValueFlowGraph graph(*m, ms.points_to, ms.resolved_calls);
  const ir::Function* producer = m->find_function("producer");
  const ir::Instruction* read =
      producer->entry()->instructions().front().get();
  vuln::VulnerabilityAnalyzer::Options options;
  options.value_flow = &graph;
  const vuln::VulnerabilityAnalyzer analyzer(*m, options);
  const interp::CallStack stack{{producer, read}};
  std::size_t exploits = 0;
  for (auto _ : state) {
    const vuln::VulnAnalysis analysis = analyzer.analyze_from(read, stack);
    exploits = analysis.exploits.size();
    benchmark::DoNotOptimize(exploits);
  }
  state.counters["exploits"] = static_cast<double>(exploits);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * exploits));
}
BENCHMARK(BM_VulnFlowWalk)->ArgName("relays")->Arg(4)->Arg(32)->Arg(128);

// --------------------------------------------------------------------------
// Sync-preserving race prediction (BENCH_predict.json;
// --benchmark_filter='Predict'): raw SP-closure cost scaling with trace
// length, and the whole-pipeline payoff of --predict on — the pruned
// guarded-handoff pairs never reach schedule exploration, so the on/off
// real_time gap is the schedules_avoided win.
// --------------------------------------------------------------------------

/// Instruction donors for the synthetic predictor traces (the predictor
/// keys reports and events by instruction id).
struct PredictBenchSetup {
  std::unique_ptr<ir::Module> module;
  const ir::Instruction* w_x = nullptr;
  const ir::Instruction* w_flag = nullptr;
  const ir::Instruction* r_flag = nullptr;
  const ir::Instruction* r_x = nullptr;
  const ir::Instruction* w_noise = nullptr;

  PredictBenchSetup() {
    auto parsed = ir::parse_module(R"(module predict_bench
global @x
global @flag
global @noise
func @f() {
entry:
  store 1, @x
  store 1, @flag
  %a = load @flag
  %b = load @x
  store 1, @noise
  ret
}
func @main() {
entry:
  ret
}
)");
    module = std::move(parsed).value();
    const ir::Function* f = module->find_function("f");
    std::vector<const ir::Instruction*> accesses;
    for (const auto& bb : f->blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (instr->opcode() == ir::Opcode::kStore ||
            instr->opcode() == ir::Opcode::kLoad) {
          accesses.push_back(instr.get());
        }
      }
    }
    w_x = accesses[0];
    w_flag = accesses[1];
    r_flag = accesses[2];
    r_x = accesses[3];
    w_noise = accesses[4];
  }
};

/// One SP-closure decision over a trace of range(0) noise events per
/// thread with the racing pair at the far end: the ideal spans the whole
/// prefix, so this prices the closure's fixpoint against trace length.
void BM_PredictClosure(benchmark::State& state) {
  using race::predict::TraceEvent;
  const PredictBenchSetup setup;
  const auto noise = static_cast<std::size_t>(state.range(0));

  const auto ev = [](TraceEvent::Kind kind, interp::ThreadId tid,
                     interp::Address addr, const ir::Instruction* instr) {
    TraceEvent e;
    e.kind = kind;
    e.tid = tid;
    e.addr = addr;
    e.instr = instr;
    return e;
  };
  race::predict::Trace trace;
  trace.events.push_back(ev(TraceEvent::Kind::kThreadCreate, 0, 1, nullptr));
  trace.events.push_back(ev(TraceEvent::Kind::kThreadCreate, 0, 2, nullptr));
  for (std::size_t i = 0; i < noise; ++i) {
    trace.events.push_back(
        ev(TraceEvent::Kind::kWrite, 1, 10000 + i, setup.w_noise));
    trace.events.push_back(
        ev(TraceEvent::Kind::kWrite, 2, 20000 + i, setup.w_noise));
  }
  trace.events.push_back(ev(TraceEvent::Kind::kWrite, 1, 5, setup.w_x));
  trace.events.push_back(ev(TraceEvent::Kind::kWrite, 1, 6, setup.w_flag));
  trace.events.push_back(ev(TraceEvent::Kind::kRead, 2, 6, setup.r_flag));
  trace.events.push_back(ev(TraceEvent::Kind::kRead, 2, 5, setup.r_x));
  const std::vector<race::predict::Trace> traces{std::move(trace)};

  std::vector<race::RaceReport> reduced(2);
  reduced[0].first.instr = setup.w_x;
  reduced[0].second.instr = setup.r_x;
  reduced[1].first.instr = setup.w_flag;
  reduced[1].second.instr = setup.r_flag;

  const race::predict::SpPredictor predictor;
  for (auto _ : state) {
    // module=nullptr: every read steering — the strictest (costliest)
    // closure, and the one that proves reduced[0] infeasible.
    const auto out = predictor.analyze(nullptr, traces, reduced);
    benchmark::DoNotOptimize(out.candidates);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * traces[0].events.size()));
}
BENCHMARK(BM_PredictClosure)->ArgName("noise")->Arg(64)->Arg(512)->Arg(4096);

/// The guarded-publish shape the shipped examples plant, widened to six
/// payload cells: every payload pair is flag-guarded (SP-infeasible), only
/// the flag handoff itself races — so exhaustive mode schedule-explores
/// seven reports where predict mode explores one.
constexpr const char* kPredictPipelineModule = R"(module predict_pipe
global @d0
global @d1
global @d2
global @d3
global @d4
global @d5
global @flag
func @writer() {
entry:
  store 10, @d0
  store 11, @d1
  store 12, @d2
  store 13, @d3
  store 14, @d4
  store 15, @d5
  store 1, @flag
  ret
}
func @reader() {
entry:
  io_delay 5
  %f = load @flag
  %ok = icmp ne %f, 0
  br %ok, use, skip
use:
  %v0 = load @d0
  %v1 = load @d1
  %v2 = load @d2
  %v3 = load @d3
  %v4 = load @d4
  %v5 = load @d5
  ret
skip:
  ret
}
func @main() {
entry:
  %w = thread_create @writer, 0
  %r = thread_create @reader, 0
  thread_join %w
  thread_join %r
  ret
}
)";

/// Full pipeline with --predict off (arg 0) vs on (arg 1) on the guarded
/// module: identical final reports, but on-mode skips schedule exploration
/// for every SP-infeasible pair — the real_time gap is the payoff
/// BENCH_predict.json records.
void BM_PipelinePredictOn(benchmark::State& state) {
  auto parsed = ir::parse_module(kPredictPipelineModule);
  const std::shared_ptr<ir::Module> m = std::move(parsed).value();
  core::PipelineTarget target;
  target.name = "predict_pipe";
  target.module = m.get();
  target.factory = [m] {
    auto machine =
        std::make_unique<interp::Machine>(*m, interp::MachineOptions{});
    machine->start(m->find_function("main"));
    return machine;
  };
  core::PipelineOptions options;
  options.predict = state.range(0) == 0 ? race::PredictMode::kOff
                                        : race::PredictMode::kOn;
  const core::Pipeline pipeline(options);
  std::size_t remaining = 0;
  std::size_t avoided = 0;
  for (auto _ : state) {
    const core::PipelineResult result = pipeline.run(target);
    remaining = result.counts.remaining;
    avoided = result.counts.predict_schedules_avoided;
    benchmark::DoNotOptimize(remaining);
  }
  state.counters["remaining"] = static_cast<double>(remaining);
  state.counters["schedules_avoided"] = static_cast<double>(avoided);
}
BENCHMARK(BM_PipelinePredictOn)->ArgName("predict")->Arg(0)->Arg(1);

// --- owl_served round-trips (BENCH_serve.json) ------------------------
// One full request lifecycle through ServiceCore — parse, admission,
// queue, execute-or-cache, respond — without the socket hop. Cold forces
// a distinct cache key every iteration (full pipeline + entry store);
// Warm replays one key (integrity-checked read, no pipeline). The spread
// between the two is what the content-addressed cache buys a CI fleet
// re-analyzing modules that did not change.

/// Same tiny lost-update module the serve tests use: fast to analyze,
/// nonempty findings, so the rendered response is representative.
constexpr const char* kServeModule = R"(module serve_bench
global @balance [1] = 100

func @deposit_a() {
entry:
  %b = load @balance
  io_delay 5
  %n = add %b, 10
  store %n, @balance
  ret
}

func @deposit_b() {
entry:
  %b = load @balance
  io_delay 3
  %n = add %b, 25
  store %n, @balance
  ret
}

func @main() {
entry:
  %a = thread_create @deposit_a, 0
  %b = thread_create @deposit_b, 0
  thread_join %a
  thread_join %b
  ret
}
)";

/// Scratch cache directory, removed on destruction.
struct ServeTempDir {
  ServeTempDir() {
    char pattern[] = "/tmp/owl_serve_bench_XXXXXX";
    path = mkdtemp(pattern);
  }
  ~ServeTempDir() {
    if (!path.empty()) {
      const std::string cmd = "rm -rf '" + path + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  std::string path;
};

std::string serve_request_line(std::uint64_t seed) {
  return str_format(
      "{\"id\":\"bench\",\"module_text\":%s,\"name\":\"serve_bench\","
      "\"options\":{\"seed\":%llu}}",
      json_quote(kServeModule).c_str(),
      static_cast<unsigned long long>(seed));
}

/// Submits one line and blocks until its response is delivered.
void serve_roundtrip(serve::ServiceCore& core, const std::string& line) {
  std::mutex mutex;
  std::condition_variable done;
  bool have_response = false;
  core.handle_line(line, "bench", [&](const std::string&) {
    std::lock_guard<std::mutex> lock(mutex);
    have_response = true;
    done.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return have_response; });
}

void BM_ServeRoundtripCold(benchmark::State& state) {
  ServeTempDir dir;
  serve::ServiceCore::Config config;
  config.cache_dir = dir.path + "/cache";
  serve::ServiceCore core(config);
  core.start();
  std::uint64_t seed = 1;  // fresh key per iteration: always a miss
  for (auto _ : state) {
    serve_roundtrip(core, serve_request_line(seed++));
  }
  core.shutdown();
  state.SetItemsProcessed(static_cast<std::int64_t>(seed - 1));
}
BENCHMARK(BM_ServeRoundtripCold)->UseRealTime();

void BM_ServeRoundtripWarm(benchmark::State& state) {
  ServeTempDir dir;
  serve::ServiceCore::Config config;
  config.cache_dir = dir.path + "/cache";
  serve::ServiceCore core(config);
  core.start();
  const std::string line = serve_request_line(1);
  serve_roundtrip(core, line);  // prewarm: the one miss + store
  std::int64_t served = 0;
  for (auto _ : state) {
    serve_roundtrip(core, line);
    ++served;
  }
  core.shutdown();
  state.SetItemsProcessed(served);
}
BENCHMARK(BM_ServeRoundtripWarm)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
