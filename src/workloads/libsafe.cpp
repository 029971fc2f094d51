// Libsafe-2.0-16 model — the paper's running example (Fig. 1, §4.3).
//
// Libsafe intercepts libc memory functions and checks for stack overflows.
// When it detects one it sets the global `dying` and kills the process
// "shortly"; until then, any thread that reads dying == 1 skips the checks
// entirely (util.c:145-146). The window between `dying = 1` and process
// death lets a concurrent attacker run a raw strcpy past the check — a
// stack overflow that Libsafe exists to prevent — and inject code.
//
// Model layout per request handler: an 8-cell stack buffer, then a one-cell
// "return slot" holding the address of the normal epilogue function. An
// overflowing strcpy reaches the return slot; the epilogue's indirect call
// then jumps wherever the attacker's payload points (our code-injection
// equivalent: the payload carries the id of @attacker_shell, which eval()s
// the attacker's command).
#include "workloads/registry.hpp"

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

Workload make_libsafe(const NoiseProfile& profile) {
  Workload w;
  w.name = "libsafe-2.0-16";
  w.program = "Libsafe";
  w.description =
      "dying-flag race bypasses stack_check; strcpy overflow + code injection";
  w.vuln_type = "Buffer Overflow";
  w.subtle_inputs = "Loops with strcpy()";
  w.paper_loc = 3'400;
  w.paper_raw_reports = 3;

  auto module = std::make_shared<ir::Module>("libsafe");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  ir::GlobalVariable* dying = m.add_global("dying");

  // --- @attacker_shell: what injected code "does" once control arrives ---
  ir::Function* shell = m.add_function("attacker_shell", ir::Type::i64());
  {
    b.set_insert_point(shell->add_block("entry"));
    b.set_loc("shellcode", 1);
    b.eval_(b.i64(1337));  // the attacker's command
    b.ret(b.i64(0));
  }

  // --- @normal_return: the legitimate epilogue target ---
  ir::Function* normal_ret = m.add_function("normal_return", ir::Type::i64());
  {
    b.set_insert_point(normal_ret->add_block("entry"));
    b.set_loc("intercept.c", 190);
    b.ret(b.i64(0));
  }

  // --- @libsafe_die: flags the process as dying (Fig. 1 line 1640) ---
  ir::Function* die = m.add_function("libsafe_die", ir::Type::void_type());
  {
    b.set_insert_point(die->add_block("entry"));
    b.set_loc("libsafe.c", 1640);
    b.store(b.i64(1), dying);
    b.ret();
  }

  // --- @stack_check(dst, src) -> 0 = proceed, 1 = blocked (util.c:117) ---
  ir::Function* check = m.add_function("stack_check", ir::Type::i64());
  {
    ir::Argument* dst = check->add_argument(ir::Type::ptr(), "dst");
    (void)dst;
    ir::Argument* src = check->add_argument(ir::Type::ptr(), "src");
    ir::BasicBlock* entry = check->add_block("entry");
    ir::BasicBlock* bypass = check->add_block("bypass");
    ir::BasicBlock* measure = check->add_block("measure");
    ir::BasicBlock* len_loop = check->add_block("len_loop");
    ir::BasicBlock* len_cont = check->add_block("len_cont");
    ir::BasicBlock* len_done = check->add_block("len_done");
    ir::BasicBlock* ok = check->add_block("ok");
    ir::BasicBlock* overflow = check->add_block("overflow");

    b.set_insert_point(entry);
    b.set_loc("util.c", 145);
    ir::Instruction* d = b.load(dying, "d");          // the racy read
    ir::Instruction* is_dying =
        b.icmp(ir::CmpPredicate::kNe, d, b.i64(0), "is_dying");
    b.br(is_dying, bypass, measure);

    b.set_insert_point(bypass);
    b.set_loc("util.c", 146);
    b.ret(b.i64(0));  // "return 0; // Bypass check."

    b.set_insert_point(measure);
    b.set_loc("util.c", 120);
    b.jmp(len_loop);

    // The scan tests the byte it reads, not a bound, so only the latch
    // comes from IRBuilder::loop_latch.
    b.set_insert_point(len_loop);
    ir::Instruction* i = b.phi(ir::Type::i64(), "i");
    b.set_loc("util.c", 121);
    ir::Instruction* p = b.gep(src, i, "p");
    ir::Instruction* ch = b.load(p, "ch");
    ir::Instruction* nz = b.icmp(ir::CmpPredicate::kNe, ch, b.i64(0), "nz");
    b.br(nz, len_cont, len_done);

    b.set_insert_point(len_cont);
    b.loop_latch({i, measure, len_done});

    b.set_loc("util.c", 130);
    ir::Instruction* fits = b.icmp(ir::CmpPredicate::kULt, i, b.i64(8), "fits");
    b.br(fits, ok, overflow);

    b.set_insert_point(ok);
    b.ret(b.i64(0));  // fits: proceed with the copy

    b.set_insert_point(overflow);
    b.set_loc("util.c", 135);
    b.call(die, {});
    b.ret(b.i64(1));  // blocked
  }

  // --- @libsafe_strcpy(dst, src) (intercept.c:151) ---
  ir::Function* lscpy = m.add_function("libsafe_strcpy", ir::Type::void_type());
  {
    ir::Argument* dst = lscpy->add_argument(ir::Type::ptr(), "dst");
    ir::Argument* src = lscpy->add_argument(ir::Type::ptr(), "src");
    ir::BasicBlock* entry = lscpy->add_block("entry");
    ir::BasicBlock* do_copy = lscpy->add_block("do_copy");
    ir::BasicBlock* blocked = lscpy->add_block("blocked");

    b.set_insert_point(entry);
    b.set_loc("intercept.c", 164);
    ir::Instruction* c = b.call(check, {dst, src}, "c");
    ir::Instruction* passes = b.icmp(ir::CmpPredicate::kEq, c, b.i64(0), "ok");
    b.br(passes, do_copy, blocked);

    b.set_insert_point(do_copy);
    b.set_loc("intercept.c", 165);
    w.attack_sites.push_back(b.strcpy_(dst, src));  // the vulnerable site
    b.ret();

    b.set_insert_point(blocked);
    b.set_loc("intercept.c", 170);
    b.ret();
  }

  // --- @handle_request(id): one simulated client request ---
  // Stack frame: buf[8] then ret_slot[1] (the injection target).
  ir::Function* handler = m.add_function("handle_request", ir::Type::void_type());
  {
    ir::Argument* id = handler->add_argument(ir::Type::i64(), "id");
    ir::BasicBlock* entry = handler->add_block("entry");
    ir::BasicBlock* fill_loop = handler->add_block("fill_loop");
    ir::BasicBlock* fill_body = handler->add_block("fill_body");
    ir::BasicBlock* send = handler->add_block("send");

    b.set_insert_point(entry);
    b.set_loc("server.c", 10);
    ir::Instruction* buf = b.alloca_cells(8, "buf");
    ir::Instruction* ret_slot = b.alloca_cells(1, "ret_slot");
    b.store(m.get_constant(ir::Type::i64(),
                           static_cast<std::int64_t>(normal_ret->id())),
            ret_slot);
    ir::Instruction* src = b.alloca_cells(64, "src");
    ir::Instruction* len = b.input(id, "len");
    ir::Instruction* delay = b.input(b.add(id, b.i64(2)), "delay");
    ir::Instruction* marker = b.input(b.i64(4), "marker");
    const auto loop = b.loop_header(fill_loop, len, fill_body, send);
    b.set_loc("server.c", 20);
    ir::Instruction* slot = b.gep(src, loop.index, "slot");
    b.store(marker, slot);
    b.loop_latch(loop);

    b.set_loc("server.c", 30);
    b.io_delay(delay);  // request arrival timing — the attacker's knob
    b.call(lscpy, {buf, src});
    // Epilogue: indirect jump through the (possibly overwritten) slot.
    b.set_loc("server.c", 40);
    ir::Instruction* target = b.load(ret_slot, "target");
    b.callptr(target, {}, "epi");
    b.ret();
  }

  // --- noise (Libsafe is tiny: the paper reports just 3 raw races; one
  // benign stats counter supplies the other two) ---
  NoiseSpec noise;
  noise.counters = 1;
  noise.tag = "ls_noise";
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  // --- @main ---
  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("server.c", 1);
    ir::Instruction* t0 = b.thread_create(handler, b.i64(0), "t0");
    ir::Instruction* t1 = b.thread_create(handler, b.i64(1), "t1");
    std::vector<ir::Instruction*> tids{t0, t1};
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }
  (void)profile;

  w.module = module;
  w.entry = main_fn;
  // inputs: [len_t0, len_t1, delay_t0, delay_t1, marker]
  // Testing: one boundary-length request trips the overflow detector (so
  // the dying store executes) alongside a normal request — a plausible
  // stress benchmark; no attack manifests.
  w.testing_inputs = {9, 5, 0, 2, 7};
  // Exploit (Table 4 "loops with strcpy()"): two oversized requests; the
  // first trips libsafe_die, the second is timed into the dying window and
  // carries the shell's address at payload position 9 (the return slot).
  w.exploit_inputs = {12, 12, 0, 200,
                      static_cast<interp::Word>(shell->id())};
  w.known_attacks = 1;
  w.thread_order = {1, 2};  // let the dying thread run first
  w.detection_schedules = 4;

  w.attack_succeeded = [](const interp::Machine& machine) {
    // The injected "shellcode" ran: our root-shell equivalent.
    for (const interp::EvalRecord& rec : machine.evals()) {
      if (rec.command_id == 1337) return true;
    }
    return false;
  };
  return w;
}

}  // namespace owl::workloads
