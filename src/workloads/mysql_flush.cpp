// MySQL-5.0.27 model — bug 24988, "FLUSH PRIVILEGES" privilege escalation
// (paper §3.1 Finding III, Table 4).
//
// FLUSH PRIVILEGES clears the in-memory ACL cache and reloads it from the
// grant tables. While the cache is empty, a concurrently authenticating
// connection finds no ACL entries and falls into the permissive path —
// the paper reports corrupting another user's privilege table with only 18
// repeated "flush privileges;" executions. We model the empty-cache grant
// as an unauthorized setuid(0): the privilege-operation vulnerable site.
#include "workloads/registry.hpp"

#include <cmath>

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

Workload make_mysql_flush(const NoiseProfile& profile) {
  Workload w;
  w.name = "mysql-5.0.27";
  w.program = "MySQL";
  w.description = "FLUSH PRIVILEGES ACL-cache race; privilege escalation";
  w.vuln_type = "Access Permission";
  w.subtle_inputs = "FLUSH PRIVILEGES";
  w.paper_loc = 1'500'000;
  w.paper_raw_reports = 1'123;

  auto module = std::make_shared<ir::Module>("mysql_5_0_27");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  ir::GlobalVariable* acl_loaded = m.add_global("acl_loaded", 1, 1);

  // --- acl_grant_all: the permissive path taken on an empty cache.
  // Keeping it in its own function mirrors the real code and the paper's
  // Finding II: the bug (the racy read in check_grant) and its attack site
  // live in different functions, connected by control flow.
  ir::Function* grant_fn = m.add_function("acl_grant_all", ir::Type::void_type());
  {
    b.set_insert_point(grant_fn->add_block("entry"));
    b.set_loc("sql_acl.cc", 2100);
    w.attack_sites.push_back(b.setuid_(b.i64(0)));  // vulnerable site
    b.ret();
  }

  // --- check_grant: the authentication path reading the ACL cache ---
  ir::Function* check_grant = m.add_function("check_grant", ir::Type::void_type());
  {
    ir::BasicBlock* entry = check_grant->add_block("entry");
    ir::BasicBlock* grant_all = check_grant->add_block("grant_all");
    ir::BasicBlock* normal = check_grant->add_block("normal");

    b.set_insert_point(entry);
    b.set_loc("sql_acl.cc", 3300);
    ir::Instruction* a = b.load(acl_loaded, "acl");  // racy read
    ir::Instruction* empty =
        b.icmp(ir::CmpPredicate::kEq, a, b.i64(0), "empty");
    b.set_loc("sql_acl.cc", 3302);
    b.br(empty, grant_all, normal);

    b.set_insert_point(grant_all);
    // Empty cache: no entries to deny — the connection is treated as
    // privileged (the bug's consequence).
    b.set_loc("sql_acl.cc", 3310);
    b.call(grant_fn, {});
    b.ret();

    b.set_insert_point(normal);
    b.set_loc("sql_acl.cc", 3320);
    b.file_access(b.i64(2));  // ordinary grant-table lookup
    b.ret();
  }

  // --- flush handler: clear, reload (with table-scan IO between) ---
  ir::Function* flush_fn = m.add_function("acl_reload", ir::Type::void_type());
  {
    ir::BasicBlock* entry = flush_fn->add_block("entry");
    ir::BasicBlock* header = flush_fn->add_block("header");
    ir::BasicBlock* body = flush_fn->add_block("body");
    ir::BasicBlock* done = flush_fn->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("sql_acl.cc", 1190);
    ir::Instruction* reps = b.input(b.i64(0), "flush_reps");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("sql_acl.cc", 1200);
    b.store(b.i64(0), acl_loaded);  // cache cleared — the window opens
    ir::Instruction* scan = b.input(b.i64(1), "table_scan_io");
    b.io_delay(scan);               // re-reading grant tables from disk
    b.set_loc("sql_acl.cc", 1210);
    b.store(b.i64(1), acl_loaded);  // reloaded — the window closes
    b.io_delay(b.i64(2));
    b.loop_latch(loop);
    b.ret();
  }

  // --- connection thread: repeated authenticating queries ---
  ir::Function* conn_fn = m.add_function("handle_connection", ir::Type::void_type());
  {
    ir::BasicBlock* entry = conn_fn->add_block("entry");
    ir::BasicBlock* header = conn_fn->add_block("header");
    ir::BasicBlock* body = conn_fn->add_block("body");
    ir::BasicBlock* done = conn_fn->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("sql_parse.cc", 400);
    ir::Instruction* connect_at = b.input(b.i64(3), "connect_at");
    b.io_delay(connect_at);
    ir::Instruction* reps = b.input(b.i64(2), "query_reps");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("sql_parse.cc", 410);
    b.call(check_grant, {});
    b.io_delay(b.i64(1));
    b.loop_latch(loop);
    b.ret();
  }

  // --- noise (half of the MySQL volume; the 5.1.35 model has the rest) ---
  const double s = profile.scale;
  NoiseSpec noise;
  noise.tag = "my50";
  noise.adhoc_groups = 3;
  noise.adhoc_guarded = static_cast<unsigned>(std::lround(5 * s) + 1);
  noise.publication_depth = static_cast<unsigned>(std::lround(15 * s));
  noise.counters = static_cast<unsigned>(std::lround(3 * s));
  noise.safe_site_groups = static_cast<unsigned>(std::lround(2 * s));
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("mysqld.cc", 1);
    std::vector<ir::Instruction*> tids;
    tids.push_back(b.thread_create(flush_fn, b.i64(0), "t_flush"));
    tids.push_back(b.thread_create(conn_fn, b.i64(0), "t_conn"));
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  // inputs: [flush_reps, table_scan_io, query_reps, connect_at]
  w.testing_inputs = {2, 1, 3, 9000};
  // Exploit: the paper triggered this with 18 repeated "flush privileges;"
  // queries; the table-scan IO is stretched to widen the empty-cache window.
  w.exploit_inputs = {18, 12, 18, 0};
  w.known_attacks = 1;
  w.thread_order = {1, 2};  // flush first, then the authenticating query
  w.max_steps = 400'000;

  w.attack_succeeded = [](const interp::Machine& machine) {
    return machine.has_event(interp::SecurityEventKind::kPrivilegeEscalation);
  };
  return w;
}

}  // namespace owl::workloads
