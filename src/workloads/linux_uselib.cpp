// Linux kernel model (SKI mode) — two studied kernel attacks in one
// "kernel" module, matching Table 2's Linux row (2 attacks):
//
//  1. Linux-2.6.10 uselib()/msync() race (paper Fig. 2): msync_interval
//     checks file->f_op, performs IO, then calls file->f_op->fsync();
//     do_munmap() concurrently NULLs f_op. Attackers tune the IO timing to
//     widen the check-to-use window and trigger a NULL function-pointer
//     dereference — and from there arbitrary code execution (CVE on
//     osvdb 12791).
//  2. A Linux-2.6.29-style privilege escalation (Table 4 row "Syscall
//     parameters"): an exec-path credential check races with a ptrace-side
//     transient override; reading the override mid-window grants uid 0.
//
// Per the paper (§8.3), kernels run under SKI-mode detection (schedule
// exploration + the §6.3 watch-list policy) and WITHOUT the LLDB-based
// dynamic verifiers; OWL's static analyzer alone pinpoints the sites.
#include "workloads/registry.hpp"

#include <cmath>

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

Workload make_linux(const NoiseProfile& profile) {
  Workload w;
  w.name = "linux-2.6";
  w.program = "Linux";
  w.description =
      "uselib f_op NULL-func-ptr race (2.6.10) + ptrace/exec privilege "
      "escalation (2.6.29)";
  w.vuln_type = "Null Func Ptr Deref / Privilege Escalation";
  w.subtle_inputs = "Syscall parameters";
  w.paper_loc = 2'800'000;
  w.paper_raw_reports = 24'641;

  auto module = std::make_shared<ir::Module>("linux");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  // --- fsync implementation the f_op "struct" points to ---
  ir::Function* fsync_impl = m.add_function("generic_fsync", ir::Type::i64());
  {
    b.set_insert_point(fsync_impl->add_block("entry"));
    b.set_loc("fs/buffer.c", 330);
    b.ret(b.i64(0));
  }

  ir::GlobalVariable* f_op = m.add_global(
      "f_op", 1, static_cast<std::int64_t>(fsync_impl->id()));
  ir::GlobalVariable* cred_override = m.add_global("cred_override");

  // --- msync_interval: check f_op, IO, then call through it (Fig. 2) ---
  ir::Function* msync_interval =
      m.add_function("msync_interval", ir::Type::void_type());
  {
    ir::BasicBlock* entry = msync_interval->add_block("entry");
    ir::BasicBlock* do_sync = msync_interval->add_block("do_sync");
    ir::BasicBlock* out = msync_interval->add_block("out");

    b.set_insert_point(entry);
    b.set_loc("mm/msync.c", 110);
    ir::Instruction* f1 = b.load(f_op, "f1");
    ir::Instruction* present =
        b.icmp(ir::CmpPredicate::kNe, f1, b.i64(0), "present");
    b.set_loc("mm/msync.c", 112);
    b.br(present, do_sync, out);

    b.set_insert_point(do_sync);
    b.set_loc("mm/msync.c", 113);
    ir::Instruction* window = b.input(b.i64(0), "io_window");
    b.io_delay(window);  // disk IO between the check and the use
    b.set_loc("mm/msync.c", 115);
    ir::Instruction* f2 = b.load(f_op, "f2");  // racy re-read
    // file->f_op->fsync(...): the vulnerable site
    w.attack_sites.push_back(b.callptr(f2, {}, "err"));
    b.ret();

    b.set_insert_point(out);
    b.ret();
  }

  // --- msync syscall loop (attacker-controlled repetition count) ---
  ir::Function* msync_loop = m.add_function("sys_msync", ir::Type::void_type());
  {
    ir::BasicBlock* entry = msync_loop->add_block("entry");
    ir::BasicBlock* header = msync_loop->add_block("header");
    ir::BasicBlock* body = msync_loop->add_block("body");
    ir::BasicBlock* done = msync_loop->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("mm/msync.c", 90);
    ir::Instruction* reps = b.input(b.i64(2), "reps");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("mm/msync.c", 95);
    b.call(msync_interval, {});
    b.loop_latch(loop);
    b.ret();
  }

  // --- do_munmap (the uselib side): NULLs f_op after its own IO ---
  ir::Function* munmap_fn = m.add_function("do_munmap", ir::Type::void_type());
  {
    b.set_insert_point(munmap_fn->add_block("entry"));
    b.set_loc("mm/mmap.c", 1825);
    ir::Instruction* delay = b.input(b.i64(1), "swap_io");
    b.io_delay(delay);  // kernel swap IO the attacker provokes
    b.set_loc("mm/mmap.c", 1830);
    b.store(b.null_ptr(), f_op);  // file->f_op = NULL;
    b.ret();
  }

  // --- commit_creds: applies the (escalated) credentials — the attack
  // site is a callee of the racy check (paper Finding II) ---
  ir::Function* commit_creds =
      m.add_function("commit_creds", ir::Type::void_type());
  {
    b.set_insert_point(commit_creds->add_block("entry"));
    b.set_loc("kernel/cred.c", 480);
    // vulnerable site: unauthorized uid 0
    w.attack_sites.push_back(b.setuid_(b.i64(0)));
    b.ret();
  }

  // --- 2.6.29-style privilege escalation ---
  ir::Function* check_exec =
      m.add_function("check_and_exec", ir::Type::void_type());
  {
    ir::BasicBlock* entry = check_exec->add_block("entry");
    ir::BasicBlock* elevate = check_exec->add_block("elevate");
    ir::BasicBlock* normal = check_exec->add_block("normal");

    b.set_insert_point(entry);
    b.set_loc("kernel/cred.c", 210);
    ir::Instruction* c = b.load(cred_override, "c");  // racy read
    ir::Instruction* elevated =
        b.icmp(ir::CmpPredicate::kNe, c, b.i64(0), "elev");
    b.set_loc("kernel/cred.c", 212);
    b.br(elevated, elevate, normal);

    b.set_insert_point(elevate);
    b.set_loc("kernel/cred.c", 215);
    b.call(commit_creds, {});
    b.ret();

    b.set_insert_point(normal);
    b.set_loc("kernel/cred.c", 220);
    b.file_access(b.i64(1));
    b.ret();
  }

  ir::Function* exec_loop = m.add_function("sys_execve", ir::Type::void_type());
  {
    ir::BasicBlock* entry = exec_loop->add_block("entry");
    ir::BasicBlock* header = exec_loop->add_block("header");
    ir::BasicBlock* body = exec_loop->add_block("body");
    ir::BasicBlock* done = exec_loop->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("fs/exec.c", 50);
    ir::Instruction* reps = b.input(b.i64(4), "reps");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("fs/exec.c", 55);
    b.call(check_exec, {});
    b.io_delay(b.i64(1));
    b.loop_latch(loop);
    b.ret();
  }

  ir::Function* ptrace_fn = m.add_function("ptrace_attach", ir::Type::void_type());
  {
    b.set_insert_point(ptrace_fn->add_block("entry"));
    b.set_loc("kernel/ptrace.c", 545);
    ir::Instruction* when = b.input(b.i64(3), "when");
    b.io_delay(when);
    b.set_loc("kernel/ptrace.c", 550);
    b.store(b.i64(1), cred_override);  // transient override begins
    ir::Instruction* width = b.input(b.i64(5), "width");
    b.io_delay(width);
    b.set_loc("kernel/ptrace.c", 560);
    b.store(b.i64(0), cred_override);  // window closes
    b.ret();
  }

  // --- noise: the kernel's report volume is dominated by adhoc syncs
  // (paper: 8 annotations collapse 24,641 raw reports to 1,718) ---
  const double s = profile.scale;
  NoiseSpec noise;
  noise.tag = "kern";
  noise.adhoc_groups = s < 0.01 ? 0 : 8;  // scale 0 = noise-free kernel
  noise.adhoc_guarded = static_cast<unsigned>(std::lround(275 * s));
  noise.counters = static_cast<unsigned>(std::lround(82 * s));
  noise.safe_site_groups = static_cast<unsigned>(std::lround(3 * s));
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("init/main.c", 1);
    std::vector<ir::Instruction*> tids;
    tids.push_back(b.thread_create(msync_loop, b.i64(0), "t_msync"));
    tids.push_back(b.thread_create(munmap_fn, b.i64(0), "t_uselib"));
    tids.push_back(b.thread_create(exec_loop, b.i64(0), "t_exec"));
    tids.push_back(b.thread_create(ptrace_fn, b.i64(0), "t_ptrace"));
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  w.detector = core::DetectorKind::kSki;  // no dynamic verifiers (§8.3)
  w.detection_schedules = 4;
  w.max_steps = 600'000;
  // inputs: [msync_io, uselib_io, msync_reps, ptrace_when, exec_reps,
  //          ptrace_width]
  // Benchmark timing: the racing stores land after the syscall loops have
  // drained, so the races are detected (no happens-before edge orders
  // them) but their consequences do not manifest.
  w.testing_inputs = {1, 9000, 3, 9500, 3, 1};
  // Exploit (Table 4 "syscall parameters"): msync IO stretched to widen the
  // check-to-use window; uselib timed into it; ptrace window widened and
  // the exec loop lengthened.
  w.exploit_inputs = {25, 10, 8, 6, 10, 20};
  w.known_attacks = 2;
  w.thread_order = {2, 1, 4, 3};

  w.attack_succeeded = [](const interp::Machine& machine) {
    return machine.has_event(interp::SecurityEventKind::kNullFuncPtrDeref) ||
           machine.has_event(interp::SecurityEventKind::kPrivilegeEscalation);
  };
  return w;
}

}  // namespace owl::workloads
