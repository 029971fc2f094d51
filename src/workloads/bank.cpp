// Extension target: an atomicity-violation attack (paper §8.3's
// "integrate CTrigger-class detectors" future work, implemented).
//
// A banking service withdraws cash with a classic check-then-act bug:
// the balance is read under the lock, the authorization round-trip happens
// OUTSIDE it, and the debit re-acquires the lock but stores a value
// computed from the stale read. Every access is individually
// lock-protected, so a happens-before race detector (TSan mode) is
// completely silent — yet two concurrent withdrawals both pass the check
// and both dispense: a double-spend. The unserializable R-W-W triple on
// the balance is exactly what the atomicity detector reports, and the rest
// of the OWL pipeline (race verifier, Algorithm 1, vulnerability verifier)
// runs on it unchanged.
#include "workloads/registry.hpp"

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

Workload make_bank_atomicity(const NoiseProfile& profile) {
  (void)profile;  // this extension target carries no background noise
  Workload w;
  w.name = "bank-teller";
  w.program = "Bank";
  w.description =
      "check-then-act withdrawal; atomicity violation -> double dispense";
  w.vuln_type = "Atomicity Violation / Double Spend";
  w.subtle_inputs = "concurrent withdrawals during authorization";
  w.paper_loc = 0;
  w.paper_raw_reports = 0;

  auto module = std::make_shared<ir::Module>("bank_teller");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  ir::GlobalVariable* mu = m.add_global("balance_mu");
  ir::GlobalVariable* balance = m.add_global("balance", 1, 10);

  // --- withdraw(amount): check under lock, act under a different lock ---
  ir::Function* withdraw = m.add_function("withdraw", ir::Type::void_type());
  {
    ir::Argument* amount = withdraw->add_argument(ir::Type::i64(), "amount");
    ir::BasicBlock* entry = withdraw->add_block("entry");
    ir::BasicBlock* dispense = withdraw->add_block("dispense");
    ir::BasicBlock* declined = withdraw->add_block("declined");

    b.set_insert_point(entry);
    b.set_loc("teller.c", 38);
    b.lock(mu);
    b.set_loc("teller.c", 40);
    ir::Instruction* bal = b.load(balance, "bal");  // first local access (R)
    b.unlock(mu);
    b.set_loc("teller.c", 42);
    ir::Instruction* authorize = b.input(b.i64(1), "auth_latency");
    b.io_delay(authorize);  // card-network round trip, outside the lock
    b.set_loc("teller.c", 44);
    ir::Instruction* ok =
        b.icmp(ir::CmpPredicate::kSGe, bal, amount, "ok");
    b.br(ok, dispense, declined);

    b.set_insert_point(dispense);
    b.set_loc("teller.c", 47);
    b.lock(mu);
    b.set_loc("teller.c", 48);
    // The bug: debit from the STALE balance (second local access, W).
    b.store(b.sub(bal, amount), balance);
    b.unlock(mu);
    b.set_loc("teller.c", 50);
    // dispense the cash — the vulnerable site
    w.attack_sites.push_back(b.eval_(amount));
    b.ret();

    b.set_insert_point(declined);
    b.set_loc("teller.c", 53);
    b.ret();
  }

  // --- teller thread: a stream of withdrawals, phase-staggered ---
  ir::Function* teller = m.add_function("teller", ir::Type::void_type());
  {
    ir::Argument* phase = teller->add_argument(ir::Type::i64(), "phase");
    ir::BasicBlock* entry = teller->add_block("entry");
    ir::BasicBlock* header = teller->add_block("header");
    ir::BasicBlock* body = teller->add_block("body");
    ir::BasicBlock* done = teller->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("teller.c", 20);
    b.io_delay(phase);
    ir::Instruction* reps = b.input(b.i64(2), "withdrawals");
    ir::Instruction* amount = b.input(b.i64(0), "amount");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("teller.c", 25);
    b.call(withdraw, {amount});
    b.io_delay(b.i64(2));
    b.loop_latch(loop);
    b.ret();
  }

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("bank.c", 1);
    ir::Instruction* t1 = b.thread_create(teller, b.i64(0), "t1");
    ir::Instruction* t2_at = b.input(b.i64(3), "t2_at");
    ir::Instruction* t2 = b.thread_create(teller, t2_at, "t2");
    b.thread_join(t1);
    b.thread_join(t2);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  w.detector = core::DetectorKind::kAtomicity;
  // inputs: [amount, auth_latency, withdrawals_per_teller, teller2_at]
  // Testing: concurrent small withdrawals — the unserializable triple
  // manifests (the detector needs to observe it; atomicity violations,
  // unlike happens-before races, are only visible when they interleave)
  // but the balance covers both, so no money is stolen.
  w.testing_inputs = {2, 4, 2, 0};
  // Exploit: both tellers withdraw 6 from a balance of 10 while the
  // authorization latency holds the stale read open.
  w.exploit_inputs = {6, 15, 2, 0};
  w.known_attacks = 1;
  w.thread_order = {1, 2};
  w.max_steps = 200'000;

  w.attack_succeeded = [](const interp::Machine& machine) {
    // Double spend: more cash dispensed than the opening balance allowed.
    interp::Word dispensed = 0;
    for (const interp::EvalRecord& rec : machine.evals()) {
      dispensed += rec.command_id;  // eval's operand is the amount
    }
    return dispensed > 10;
  };
  return w;
}

}  // namespace owl::workloads
