// MySQL-5.1.35 model — "SET PASSWORD" double free (Table 4).
//
// Two sessions executing SET PASSWORD race on the shared scrambled-password
// buffer: each loads the buffer pointer, frees it, and installs a fresh
// allocation. If both load the same pointer before either re-installs, the
// second free() frees already-freed memory — a classic concurrency-driven
// double free, exploitable for heap corruption.
#include "workloads/registry.hpp"

#include <cmath>

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

Workload make_mysql_setpass(const NoiseProfile& profile) {
  Workload w;
  w.name = "mysql-5.1.35";
  w.program = "MySQL";
  w.description = "SET PASSWORD buffer-pointer race; double free";
  w.vuln_type = "Double Free";
  w.subtle_inputs = "SET PASSWORD";
  w.paper_loc = 1'500'000;
  w.paper_raw_reports = 1'123;

  auto module = std::make_shared<ir::Module>("mysql_5_1_35");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  ir::GlobalVariable* pass_buf = m.add_global("pass_buf");

  // --- replace_buffer(p): frees the old scramble buffer and installs a
  // fresh one. The double free happens one call below the racy read
  // (paper Finding II: bug and site in different functions, data flow
  // through the call argument) ---
  ir::Function* replace_fn =
      m.add_function("replace_buffer", ir::Type::void_type());
  {
    ir::Argument* p = replace_fn->add_argument(ir::Type::ptr(), "p");
    b.set_insert_point(replace_fn->add_block("entry"));
    b.set_loc("password.cc", 205);
    // vulnerable site (memory operation)
    w.attack_sites.push_back(b.free_ptr(p));
    b.set_loc("password.cc", 208);
    ir::Instruction* fresh = b.malloc_cells(b.i64(4), "fresh");
    b.set_loc("password.cc", 210);
    b.store(fresh, pass_buf);  // racy write
    b.ret();
  }

  // --- set_password: load ptr, (parse delay), delegate replacement ---
  ir::Function* setpass = m.add_function("set_password", ir::Type::void_type());
  {
    ir::BasicBlock* entry = setpass->add_block("entry");
    ir::BasicBlock* replace = setpass->add_block("replace");
    ir::BasicBlock* skip = setpass->add_block("skip");

    b.set_insert_point(entry);
    b.set_loc("password.cc", 100);
    ir::Instruction* p = b.load(pass_buf, "p");  // racy read
    ir::Instruction* present =
        b.icmp(ir::CmpPredicate::kNe, p, b.i64(0), "present");
    b.set_loc("password.cc", 102);
    b.br(present, replace, skip);

    b.set_insert_point(replace);
    b.set_loc("password.cc", 103);
    ir::Instruction* parse = b.input(b.i64(1), "parse_io");
    b.io_delay(parse);  // scrambling the new password
    b.set_loc("password.cc", 105);
    b.call(replace_fn, {p});
    b.ret();

    b.set_insert_point(skip);
    b.ret();
  }

  // --- session thread: repeated SET PASSWORD statements ---
  ir::Function* session = m.add_function("session", ir::Type::void_type());
  {
    ir::Argument* phase = session->add_argument(ir::Type::i64(), "phase");
    ir::BasicBlock* entry = session->add_block("entry");
    ir::BasicBlock* header = session->add_block("header");
    ir::BasicBlock* body = session->add_block("body");
    ir::BasicBlock* done = session->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("sql_parse.cc", 900);
    b.io_delay(phase);
    ir::Instruction* reps = b.input(b.i64(0), "reps");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("sql_parse.cc", 910);
    b.call(setpass, {});
    b.io_delay(b.i64(2));
    b.loop_latch(loop);
    b.ret();
  }

  const double s = profile.scale;
  NoiseSpec noise;
  noise.tag = "my51";
  noise.adhoc_groups = 3;
  noise.adhoc_guarded = static_cast<unsigned>(std::lround(5 * s) + 1);
  noise.publication_depth = static_cast<unsigned>(std::lround(15 * s));
  noise.counters = static_cast<unsigned>(std::lround(3 * s));
  noise.safe_site_groups = static_cast<unsigned>(std::lround(1 * s));
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("mysqld.cc", 1);
    // Install the initial password buffer before any session starts.
    ir::Instruction* init = b.malloc_cells(b.i64(4), "init");
    b.store(init, pass_buf);
    std::vector<ir::Instruction*> tids;
    tids.push_back(b.thread_create(session, b.i64(0), "s1"));
    ir::Instruction* s2_at = b.input(b.i64(2), "s2_at");
    tids.push_back(b.thread_create(session, s2_at, "s2"));
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  // inputs: [reps_per_session, parse_io, second_session_at]
  w.testing_inputs = {2, 1, 9000};
  // Exploit: repeated SET PASSWORD with a long scramble delay so both
  // sessions hold the same stale pointer.
  w.exploit_inputs = {12, 15, 0};
  w.known_attacks = 1;
  w.thread_order = {1, 2};
  w.max_steps = 400'000;

  w.attack_succeeded = [](const interp::Machine& machine) {
    return machine.has_event(interp::SecurityEventKind::kDoubleFree);
  };
  return w;
}

}  // namespace owl::workloads
