// Chrome-6.0.472.58 model — the JS console.profile() use-after-free
// (Table 4: "Js console.profile").
//
// The JS thread grabs the shared profiler object and, after a profiling
// delay, walks it and calls its collect hook. The browser's teardown path
// concurrently destroys the profiler and NULLs the pointer. A profile call
// straddling the teardown dereferences freed memory — exploitable for
// renderer code execution in the real browser.
#include "workloads/registry.hpp"

#include <cmath>

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

Workload make_chrome(const NoiseProfile& profile) {
  Workload w;
  w.name = "chrome-6.0.472.58";
  w.program = "Chrome";
  w.description = "console.profile teardown race; use after free";
  w.vuln_type = "Use after free";
  w.subtle_inputs = "Js console.profile";
  w.paper_loc = 3'400'000;
  w.paper_raw_reports = 1'715;

  auto module = std::make_shared<ir::Module>("chrome_6_0");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  ir::Function* collect_impl = m.add_function("profiler_collect",
                                              ir::Type::i64());
  {
    b.set_insert_point(collect_impl->add_block("entry"));
    b.set_loc("v8/profiler.cc", 40);
    b.ret(b.i64(0));
  }

  ir::GlobalVariable* profiler = m.add_global("profiler");

  // --- collect_sample(p): dereferences the profiler object — the attack
  // site lives one call below the racy read (paper Finding II) ---
  ir::Function* collect = m.add_function("collect_sample", ir::Type::void_type());
  {
    ir::Argument* p = collect->add_argument(ir::Type::ptr(), "p");
    b.set_insert_point(collect->add_block("entry"));
    b.set_loc("v8/profiler.cc", 220);
    ir::Instruction* hook = b.load(p, "hook");  // UAF read when torn down
    b.set_loc("v8/profiler.cc", 225);
    w.attack_sites.push_back(b.callptr(hook, {}, "res"));  // vulnerable site
    b.ret();
  }

  // --- console.profile(): the JS-visible entry ---
  ir::Function* js_profile = m.add_function("console_profile",
                                            ir::Type::void_type());
  {
    ir::BasicBlock* entry = js_profile->add_block("entry");
    ir::BasicBlock* use = js_profile->add_block("use");
    ir::BasicBlock* out = js_profile->add_block("out");

    b.set_insert_point(entry);
    b.set_loc("v8/profiler.cc", 210);
    ir::Instruction* p = b.load(profiler, "p");  // racy read
    ir::Instruction* live =
        b.icmp(ir::CmpPredicate::kNe, p, b.i64(0), "live");
    b.br(live, use, out);

    b.set_insert_point(use);
    b.set_loc("v8/profiler.cc", 218);
    ir::Instruction* sample = b.input(b.i64(0), "sample_ms");
    b.io_delay(sample);  // the profiling interval — attacker-chosen
    b.set_loc("v8/profiler.cc", 219);
    b.call(collect, {p});
    b.ret();

    b.set_insert_point(out);
    b.ret();
  }

  ir::Function* js_thread = m.add_function("js_thread", ir::Type::void_type());
  {
    ir::BasicBlock* entry = js_thread->add_block("entry");
    ir::BasicBlock* header = js_thread->add_block("header");
    ir::BasicBlock* body = js_thread->add_block("body");
    ir::BasicBlock* done = js_thread->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("v8/api.cc", 100);
    ir::Instruction* reps = b.input(b.i64(1), "profile_calls");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("v8/api.cc", 110);
    b.call(js_profile, {});
    b.io_delay(b.i64(1));
    b.loop_latch(loop);
    b.ret();
  }

  // --- renderer teardown: destroys the profiler mid-profile ---
  ir::Function* teardown = m.add_function("renderer_teardown",
                                          ir::Type::void_type());
  {
    b.set_insert_point(teardown->add_block("entry"));
    b.set_loc("renderer/shutdown.cc", 300);
    ir::Instruction* when = b.input(b.i64(2), "teardown_at");
    b.io_delay(when);
    b.set_loc("renderer/shutdown.cc", 305);
    ir::Instruction* old = b.load(profiler, "old");
    b.free_ptr(old);
    b.set_loc("renderer/shutdown.cc", 307);
    b.store(b.null_ptr(), profiler);  // racy write
    b.ret();
  }

  const double s = profile.scale;
  NoiseSpec noise;
  noise.tag = "cr";
  noise.adhoc_groups = 1;
  noise.adhoc_guarded = static_cast<unsigned>(std::lround(40 * s) + 1);
  noise.publication_depth = static_cast<unsigned>(std::lround(56 * s));
  noise.counters = static_cast<unsigned>(std::lround(2 * s));
  noise.safe_site_groups = static_cast<unsigned>(std::lround(5 * s));
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("browser_main.cc", 1);
    ir::Instruction* obj = b.malloc_cells(b.i64(2), "profiler_obj");
    b.store(m.get_constant(ir::Type::i64(),
                           static_cast<std::int64_t>(collect_impl->id())),
            obj);
    b.store(obj, profiler);

    std::vector<ir::Instruction*> tids;
    tids.push_back(b.thread_create(js_thread, b.i64(0), "js"));
    tids.push_back(b.thread_create(teardown, b.i64(0), "td"));
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  // inputs: [sample_ms, profile_calls, teardown_at]
  w.testing_inputs = {1, 3, 9000};
  // Exploit: console.profile with a long sampling interval, page closed
  // mid-profile.
  w.exploit_inputs = {20, 6, 10};
  w.known_attacks = 1;
  w.thread_order = {2, 1};
  w.max_steps = 500'000;

  w.attack_succeeded = [](const interp::Machine& machine) {
    return machine.has_event(interp::SecurityEventKind::kUseAfterFree) ||
           machine.has_event(interp::SecurityEventKind::kNullFuncPtrDeref);
  };
  return w;
}

}  // namespace owl::workloads
