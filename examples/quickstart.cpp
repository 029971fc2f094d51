// Quickstart: build a small racy multithreaded program with the MiniIR
// builder, run the full OWL pipeline on it, and read the results.
//
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart
//
// The program models a tiny server: a reloader thread briefly clears a
// config-ready flag while re-reading configuration; a worker thread that
// observes the cleared flag skips its permission check and calls setuid(0).
// OWL should (1) report the race, (2) verify it in the racing moment,
// (3) statically connect it to the setuid vulnerable site, and (4) confirm
// the attack dynamically.
#include <cstdio>

#include "core/pipeline.hpp"
#include "interp/machine.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "vuln/hint.hpp"

using namespace owl;

int main() {
  // ---- 1. Build the target program in MiniIR ----
  auto module = std::make_shared<ir::Module>("quickstart");
  ir::IRBuilder b(module.get());

  ir::GlobalVariable* ready = module->add_global("config_ready", 1, 1);

  // The worker: if the config is "ready", do a normal permission check;
  // otherwise fall into the trusting legacy path.
  ir::Function* worker = module->add_function("worker", ir::Type::void_type());
  {
    ir::BasicBlock* entry = worker->add_block("entry");
    ir::BasicBlock* normal = worker->add_block("normal");
    ir::BasicBlock* legacy = worker->add_block("legacy");
    b.set_insert_point(entry);
    b.set_loc("server.c", 10);
    ir::Instruction* r = b.load(ready, "r");          // <-- the racy read
    ir::Instruction* ok = b.icmp(ir::CmpPredicate::kNe, r, b.i64(0), "ok");
    b.br(ok, normal, legacy);
    b.set_insert_point(normal);
    b.set_loc("server.c", 12);
    b.file_access(b.i64(1));  // ordinary permission check
    b.ret();
    b.set_insert_point(legacy);
    b.set_loc("server.c", 15);
    b.setuid_(b.i64(0));      // <-- the vulnerable site
    b.ret();
  }

  // The reloader: clears the flag, re-reads config (IO), sets it again.
  ir::Function* reloader =
      module->add_function("reloader", ir::Type::void_type());
  {
    b.set_insert_point(reloader->add_block("entry"));
    b.set_loc("reload.c", 20);
    b.store(b.i64(0), ready);             // <-- the racy write
    b.io_delay(b.input(b.i64(0), "io"));  // config re-read takes a while
    b.set_loc("reload.c", 22);
    b.store(b.i64(1), ready);
    b.ret();
  }

  ir::Function* main_fn = module->add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    ir::Instruction* t1 = b.thread_create(reloader, b.i64(0), "t1");
    ir::Instruction* t2 = b.thread_create(worker, b.i64(0), "t2");
    b.thread_join(t1);
    b.thread_join(t2);
    b.ret();
  }

  if (const Status status = ir::verify_module(*module); !status.is_ok()) {
    std::fprintf(stderr, "bad module: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("--- the target program ---\n%s\n",
              ir::print_module(*module).c_str());

  // ---- 2. Describe how to run it ----
  core::PipelineTarget target;
  target.name = "quickstart";
  target.module = module.get();
  target.factory = [module] {
    interp::MachineOptions options;
    options.inputs = {8};  // reload IO: the vulnerable window's width
    auto machine = std::make_unique<interp::Machine>(*module, options);
    machine->start(module->find_function("main"));
    return machine;
  };
  target.thread_order = {1, 2};  // verifier hint: reloader first

  // ---- 3. Run the OWL pipeline (Fig. 3 of the paper) ----
  core::Pipeline pipeline;
  const core::PipelineResult result = pipeline.run(target);
  ir::NameTable names;

  std::printf("--- pipeline summary ---\n");
  std::printf("raw race reports:        %zu\n", result.counts.raw_reports);
  std::printf("adhoc syncs annotated:   %zu\n", result.counts.adhoc_syncs);
  std::printf("verified real races:     %zu\n", result.counts.remaining);
  std::printf("vulnerability reports:   %zu\n",
              result.counts.vulnerability_reports);
  std::printf("confirmed attacks:       %zu\n\n", result.confirmed_attacks());

  std::printf("--- vulnerable input hints ---\n");
  for (const vuln::ExploitReport& exploit : result.exploits) {
    std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
  }

  std::printf("\n--- attacks ---\n");
  for (const core::ConcurrencyAttack& attack : result.attacks) {
    std::fputs(attack.to_string(names).c_str(), stdout);
  }
  return result.confirmed_attacks() > 0 ? 0 : 1;
}
