// SSDB-1.9.2 model — the previously-unknown use-after-free OWL found,
// confirmed as CVE-2016-1000324 (paper Fig. 6, §8.4).
//
// During shutdown, BinlogQueue's destructor frees the LevelDB handle and
// sets db = NULL (line 200). log_clean_thread_func polls thread_quit and
// db in its cleaning loop (lines 358-359); if line 359 runs before line
// 200, the loop fails to break and del_range dereferences db — a use after
// free, and line 347's db->Write is a function-pointer dereference that can
// execute from reused memory.
//
// The shutdown flag/db checks look like adhoc synchronization but guard a
// loop that does real work — which is exactly why OWL's busy-wait
// classifier must NOT prune them (Table 3: SSDB has 0 adhoc syncs).
#include "workloads/registry.hpp"

#include <cmath>

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

Workload make_ssdb(const NoiseProfile& profile) {
  Workload w;
  w.name = "ssdb-1.9.2";
  w.program = "SSDB";
  w.description =
      "BinlogQueue shutdown race; use after free (CVE-2016-1000324)";
  w.vuln_type = "Use After Free";
  w.subtle_inputs = "shutdown during log compaction";
  w.paper_loc = 67'000;
  w.paper_raw_reports = 12;

  auto module = std::make_shared<ir::Module>("ssdb_1_9_2");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  // --- the LevelDB write the db "vtable" points at ---
  ir::Function* write_impl = m.add_function("leveldb_write", ir::Type::i64());
  {
    b.set_insert_point(write_impl->add_block("entry"));
    b.set_loc("leveldb.cc", 50);
    b.ret(b.i64(0));
  }

  ir::GlobalVariable* thread_quit = m.add_global("thread_quit");
  ir::GlobalVariable* db = m.add_global("db");

  // --- del_range: uses db->Write (Fig. 6 lines 341-351) ---
  ir::Function* del_range = m.add_function("del_range", ir::Type::void_type());
  {
    ir::BasicBlock* entry = del_range->add_block("entry");
    ir::BasicBlock* header = del_range->add_block("header");
    ir::BasicBlock* body = del_range->add_block("body");
    ir::BasicBlock* done = del_range->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("binlog.cpp", 341);
    ir::Instruction* reps = b.input(b.i64(1), "range");
    b.jmp(header);

    // The header's test sits on the next source line, so the header is
    // built here and only the latch comes from IRBuilder::loop_latch.
    b.set_insert_point(header);
    ir::Instruction* i = b.phi(ir::Type::i64(), "i");
    b.set_loc("binlog.cpp", 342);
    ir::Instruction* more = b.icmp(ir::CmpPredicate::kSLt, i, reps, "more");
    b.br(more, body, done);

    b.set_insert_point(body);
    b.set_loc("binlog.cpp", 344);
    ir::Instruction* compact = b.input(b.i64(3), "compact_io");
    b.io_delay(compact);  // per-range compaction IO — widens the window
    b.set_loc("binlog.cpp", 345);
    ir::Instruction* d = b.load(db, "d");
    b.set_loc("binlog.cpp", 346);
    ir::Instruction* vt = b.load(d, "vt");  // reads freed object (UAF)
    b.set_loc("binlog.cpp", 347);
    // Status s = db->Write(...): the vulnerable site
    w.attack_sites.push_back(b.callptr(vt, {}, "s"));
    b.loop_latch({i, entry, done});
    b.ret();
  }

  // --- log_clean_thread_func (Fig. 6 lines 355-380) ---
  ir::Function* log_clean =
      m.add_function("log_clean_thread_func", ir::Type::void_type());
  {
    ir::BasicBlock* entry = log_clean->add_block("entry");
    ir::BasicBlock* header = log_clean->add_block("header");
    ir::BasicBlock* check_db = log_clean->add_block("check_db");
    ir::BasicBlock* work = log_clean->add_block("work");
    ir::BasicBlock* done = log_clean->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("binlog.cpp", 356);
    ir::Instruction* cap = b.input(b.i64(2), "clean_cycles");
    b.jmp(header);

    // The header tests the quit flag as well as the cycle cap, so only the
    // latch comes from IRBuilder::loop_latch.
    b.set_insert_point(header);
    ir::Instruction* i = b.phi(ir::Type::i64(), "i");
    b.set_loc("binlog.cpp", 358);
    ir::Instruction* q = b.load(thread_quit, "quit");
    ir::Instruction* keep =
        b.icmp(ir::CmpPredicate::kEq, q, b.i64(0), "keep");
    ir::Instruction* in_cap = b.icmp(ir::CmpPredicate::kSLt, i, cap, "incap");
    ir::Instruction* go = b.and_(keep, in_cap, "go");
    b.br(go, check_db, done);

    b.set_insert_point(check_db);
    b.set_loc("binlog.cpp", 359);
    ir::Instruction* d = b.load(db, "logs_db");  // the racy read
    ir::Instruction* gone =
        b.icmp(ir::CmpPredicate::kEq, d, b.i64(0), "gone");
    b.set_loc("binlog.cpp", 360);
    b.br(gone, done, work);  // "break" when db == NULL

    b.set_insert_point(work);
    b.set_loc("binlog.cpp", 371);
    b.call(del_range, {});  // logs->del_range(start, end)
    b.io_delay(b.i64(2));
    b.loop_latch({i, entry, done});
    b.ret();
  }

  // --- ~BinlogQueue (Fig. 6 lines 190-201) ---
  ir::Function* dtor = m.add_function("binlog_queue_dtor", ir::Type::void_type());
  {
    b.set_insert_point(dtor->add_block("entry"));
    b.set_loc("binlog.cpp", 190);
    ir::Instruction* when = b.input(b.i64(0), "shutdown_at");
    b.io_delay(when);
    b.set_loc("binlog.cpp", 198);
    ir::Instruction* old = b.load(db, "old");
    b.free_ptr(old);  // delete db
    b.set_loc("binlog.cpp", 200);
    b.store(b.null_ptr(), db);  // db = NULL — the racy write
    b.ret();
  }

  const double s = profile.scale;
  NoiseSpec noise;
  noise.tag = "ssdb";
  noise.publication_depth = static_cast<unsigned>(std::lround(5 * s));
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("ssdb.cpp", 1);
    // Bring up the database handle before any thread runs.
    ir::Instruction* handle = b.malloc_cells(b.i64(2), "handle");
    b.store(m.get_constant(ir::Type::i64(),
                           static_cast<std::int64_t>(write_impl->id())),
            handle);
    b.store(handle, db);

    std::vector<ir::Instruction*> tids;
    tids.push_back(b.thread_create(log_clean, b.i64(0), "t_clean"));
    tids.push_back(b.thread_create(dtor, b.i64(0), "t_dtor"));
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    b.thread_join(tids[1]);           // shutdown completes...
    b.store(b.i64(1), thread_quit);   // ...then the quit flag is raised
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  // inputs: [shutdown_at, del_range_width, clean_cycles, compact_io]
  w.testing_inputs = {9000, 1, 8, 1};
  // Exploit: shut down mid-compaction with a wide, slow del_range so the
  // cleaner holds the handle across the free.
  w.exploit_inputs = {30, 6, 30, 6};
  w.known_attacks = 1;
  w.thread_order = {2, 1};  // destructor first, cleaner into the window
  w.max_steps = 400'000;

  w.attack_succeeded = [](const interp::Machine& machine) {
    return machine.has_event(interp::SecurityEventKind::kUseAfterFree) ||
           machine.has_event(interp::SecurityEventKind::kNullFuncPtrDeref);
  };
  return w;
}

}  // namespace owl::workloads
