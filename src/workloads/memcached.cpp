// Memcached model — the evaluation's benign control target (Table 3 row:
// 5,376 raw reports, 0 adhoc syncs, 5,372 eliminated by the race verifier,
// 4 remaining, no attacks). All of its report volume is one-shot slab/LRU
// initialization published through racy flags — precisely the class the
// §5.2 verifier cannot re-catch "in the racing moment" — plus a couple of
// genuinely racy (but benign) statistics counters.
#include "workloads/registry.hpp"

#include <cmath>

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

Workload make_memcached(const NoiseProfile& profile) {
  Workload w;
  w.name = "memcached-1.4";
  w.program = "Memcached";
  w.description = "benign-only control target (publication + stats races)";
  w.vuln_type = "-";
  w.subtle_inputs = "-";
  w.paper_loc = 120'000;
  w.paper_raw_reports = 5'376;

  auto module = std::make_shared<ir::Module>("memcached_1_4");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  const double s = profile.scale;
  NoiseSpec noise;
  noise.tag = "mc";
  noise.publication_depth = static_cast<unsigned>(std::lround(266 * s)) + 1;
  noise.counters = static_cast<unsigned>(std::lround(2 * s));
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("memcached.c", 1);
    std::vector<ir::Instruction*> tids;
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  w.testing_inputs = {};
  w.exploit_inputs = {};
  w.known_attacks = 0;
  w.max_steps = 400'000;

  w.attack_succeeded = [](const interp::Machine&) { return false; };
  return w;
}

}  // namespace owl::workloads
