// Apache bug 46215 model — the previously-unknown integer-underflow DoS
// OWL found (paper Fig. 8, §8.4).
//
// Each worker's busyness counter is incremented/decremented without a lock
// (proxy_balancer.c:616-617). The check-then-decrement races: two finishers
// can both observe busy == 1, and the second decrement wraps the unsigned
// counter to 18,446,744,073,709,551,614 — permanently marking that worker
// "busiest". find_best_bybusyness then never assigns it another request
// (line 1195's candidate assignment is control-dependent on the corrupted
// comparison), starving workers and collapsing throughput: a DoS.
//
// The candidate selection is modelled as an indirect dispatch through the
// chosen worker's handler pointer, so the paper's "pointer assignment"
// site appears as a function-pointer-dereference vulnerable site.
#include "workloads/registry.hpp"

#include <cmath>

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

namespace {
constexpr std::int64_t kWorkers = 4;
}

Workload make_apache_balancer(const NoiseProfile& profile) {
  Workload w;
  w.name = "apache-46215";
  w.program = "Apache";
  w.description =
      "load-balancer busy-counter underflow; worker starvation DoS";
  w.vuln_type = "Integer Underflow / DoS";
  w.subtle_inputs = "bursts of short proxied requests";
  w.paper_loc = 290'000;
  w.paper_raw_reports = 715;

  auto module = std::make_shared<ir::Module>("apache_46215");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  ir::GlobalVariable* busy = m.add_global("worker_busy", kWorkers);
  ir::GlobalVariable* served = m.add_global("worker_served", kWorkers);

  // --- per-worker request handler (dispatch target) ---
  ir::Function* handler = m.add_function("worker_handle", ir::Type::i64());
  {
    ir::Argument* idx = handler->add_argument(ir::Type::i64(), "idx");
    b.set_insert_point(handler->add_block("entry"));
    b.set_loc("proxy_worker.c", 50);
    ir::Instruction* sp = b.gep(served, idx, "sp");
    ir::Instruction* sv = b.load(sp, "sv");
    b.store(b.add(sv, b.i64(1)), sp);
    b.ret(b.i64(0));
  }

  ir::GlobalVariable* handlers = m.add_global(
      "worker_handlers", kWorkers,
      static_cast<std::int64_t>(handler->id()));

  // --- proxy_balancer_post_request (Fig. 8 lines 588-617) ---
  ir::Function* post_request =
      m.add_function("proxy_balancer_post_request", ir::Type::void_type());
  {
    ir::Argument* widx = post_request->add_argument(ir::Type::i64(), "w");
    ir::BasicBlock* entry = post_request->add_block("entry");
    ir::BasicBlock* dec = post_request->add_block("dec");
    ir::BasicBlock* out = post_request->add_block("out");

    b.set_insert_point(entry);
    b.set_loc("proxy_balancer.c", 616);
    ir::Instruction* bp = b.gep(busy, widx, "bp");
    ir::Instruction* bv = b.load(bp, "bv");  // if (worker->s->busy)
    ir::Instruction* nonzero =
        b.icmp(ir::CmpPredicate::kNe, bv, b.i64(0), "nz");
    b.br(nonzero, dec, out);

    b.set_insert_point(dec);
    b.set_loc("proxy_balancer.c", 617);
    ir::Instruction* gap = b.input(b.i64(3), "finish_io");
    b.io_delay(gap);  // the check's value goes stale during completion IO
    ir::Instruction* bv2 = b.load(bp, "bv2");
    // busy-- : load-dec-store. If the other finisher got here first, bv2 is
    // already 0 and this store wraps the unsigned counter.
    b.store(b.sub(bv2, b.i64(1)), bp);  // racy write
    b.ret();

    b.set_insert_point(out);
    b.ret();
  }

  // --- find_best_bybusyness (Fig. 8 lines 1138-1195) ---
  ir::Function* find_best = m.add_function("find_best_bybusyness",
                                           ir::Type::i64());
  {
    ir::BasicBlock* entry = find_best->add_block("entry");
    ir::BasicBlock* header = find_best->add_block("header");
    ir::BasicBlock* body = find_best->add_block("body");
    ir::BasicBlock* better = find_best->add_block("better");
    ir::BasicBlock* next = find_best->add_block("next");
    ir::BasicBlock* done = find_best->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("proxy_balancer.c", 1144);
    ir::Instruction* cand = b.alloca_cells(1, "mycandidate");
    ir::Instruction* cand_busy = b.alloca_cells(1, "cand_busy");
    b.store(b.i64(0), cand);
    b.store(b.i64(-1), cand_busy);  // "infinity" in unsigned compare
    const auto loop = b.loop_header(header, kWorkers, body, done);
    b.set_loc("proxy_balancer.c", 1192);
    ir::Instruction* bp = b.gep(busy, loop.index, "bp");
    ir::Instruction* bv = b.load(bp, "bv");  // the corrupted read
    ir::Instruction* cb = b.load(cand_busy, "cb");
    ir::Instruction* less =
        b.icmp(ir::CmpPredicate::kULt, bv, cb, "less");  // unsigned compare
    b.set_loc("proxy_balancer.c", 1193);
    b.br(less, better, next);

    b.set_insert_point(better);
    b.set_loc("proxy_balancer.c", 1195);
    ir::Instruction* wp = b.gep(handlers, loop.index, "worker_ptr");
    // mycandidate = worker: the paper's site, a pointer assignment
    // control-dependent on the corrupted busyness comparison.
    w.attack_sites.push_back(b.store(wp, cand));
    b.store(bv, cand_busy);
    b.jmp(next);

    b.set_insert_point(next);
    b.loop_latch(loop);

    b.set_loc("proxy_balancer.c", 1198);
    ir::Instruction* wp2 = b.load(cand, "wp2");
    ir::Instruction* h = b.load(wp2, "h");
    // Dispatch to the chosen worker through its handler pointer.
    b.set_loc("proxy_balancer.c", 1200);
    ir::Instruction* base = b.gep(handlers, b.i64(0), "base");
    ir::Instruction* off = b.sub(wp2, base, "off");
    ir::Instruction* chosen = b.udiv(off, b.i64(8), "chosen");
    ir::Instruction* r = b.callptr(h, {chosen}, "r");
    (void)r;
    // The chosen worker is now busier.
    ir::Instruction* bp2 = b.gep(busy, chosen, "bp2");
    ir::Instruction* bv3 = b.load(bp2, "bv3");
    b.store(b.add(bv3, b.i64(1)), bp2);
    b.ret(chosen);
  }

  // --- balancer thread: a stream of proxied requests ---
  ir::Function* balancer = m.add_function("balancer_thread",
                                          ir::Type::void_type());
  {
    ir::BasicBlock* entry = balancer->add_block("entry");
    ir::BasicBlock* header = balancer->add_block("header");
    ir::BasicBlock* body = balancer->add_block("body");
    ir::BasicBlock* done = balancer->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("proxy_balancer.c", 560);
    ir::Instruction* reps = b.input(b.i64(0), "requests");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("proxy_balancer.c", 565);
    b.call(find_best, {});
    b.io_delay(b.i64(1));
    b.loop_latch(loop);
    b.ret();
  }

  // --- finisher threads: concurrent post_request on the same worker.
  // The argument is a per-thread phase offset: the exploit staggers the two
  // finishers by half the completion-IO window so one check lands before
  // the other's store and its decrement after (the wrap ordering).
  ir::Function* finisher = m.add_function("finisher_thread",
                                          ir::Type::void_type());
  {
    ir::Argument* phase = finisher->add_argument(ir::Type::i64(), "phase");
    ir::Instruction* widx = nullptr;
    ir::BasicBlock* entry = finisher->add_block("entry");
    ir::BasicBlock* header = finisher->add_block("header");
    ir::BasicBlock* body = finisher->add_block("body");
    ir::BasicBlock* done = finisher->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("proxy_balancer.c", 580);
    b.io_delay(phase);
    widx = b.add(b.i64(0), b.i64(0), "widx");  // all finishers target worker 0
    ir::Instruction* reps = b.input(b.i64(1), "finishes");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("proxy_balancer.c", 585);
    b.call(post_request, {widx});
    ir::Instruction* gap = b.input(b.i64(2), "gap");
    b.io_delay(gap);
    b.loop_latch(loop);
    b.ret();
  }

  const double s = profile.scale;
  NoiseSpec noise;
  noise.tag = "ap46";
  noise.adhoc_groups = 3;
  noise.adhoc_guarded = static_cast<unsigned>(std::lround(4 * s) + 1);
  noise.publication_depth = static_cast<unsigned>(std::lround(10 * s));
  noise.counters = static_cast<unsigned>(std::lround(2 * s));
  noise.safe_site_groups = static_cast<unsigned>(std::lround(1 * s));
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("main.c", 1);
    // Worker 0 starts with one in-flight request: busy[0] = 1.
    b.store(b.i64(1), busy);
    std::vector<ir::Instruction*> tids;
    // Finisher phases: thread f1 starts input(4) ticks later. The exploit
    // sets this to half the completion-IO window; the benchmark keeps the
    // finishers far apart.
    ir::Instruction* f1_at = b.input(b.i64(4), "f1_at");
    tids.push_back(b.thread_create(finisher, b.i64(0), "f0"));
    tids.push_back(b.thread_create(finisher, f1_at, "f1"));
    tids.push_back(b.thread_create(balancer, b.i64(0), "bal"));
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  // inputs: [balancer_requests, finishes_per_thread, finish_gap, finish_io,
  //          finisher2_at]
  w.testing_inputs = {4, 2, 2, 1, 9000};
  // Exploit: bursts of short requests so two finishers overlap on the same
  // worker with a stretched completion window.
  w.exploit_inputs = {12, 6, 1, 10, 5};
  w.known_attacks = 1;
  w.thread_order = {1, 2, 3};
  w.max_steps = 400'000;

  w.attack_succeeded = [](const interp::Machine& machine) {
    // The DoS evidence: some busy counter wrapped below zero (i.e. to the
    // huge unsigned value the paper reports), starving that worker.
    const interp::Address base = machine.global_address("worker_busy");
    for (std::int64_t i = 0; i < kWorkers; ++i) {
      if (machine.memory().load_raw(base + static_cast<interp::Address>(i) *
                                               8) < 0) {
        return true;
      }
    }
    return false;
  };
  return w;
}

}  // namespace owl::workloads
