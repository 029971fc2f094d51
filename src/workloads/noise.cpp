#include "workloads/noise.hpp"

#include "ir/builder.hpp"

namespace owl::workloads {

namespace {

/// Unsynchronized statistics counters, incremented by two threads.
/// Each counter yields a (load,store) and a (store,store) report; both are
/// genuine races that re-verify, so they survive into the R. column.
ir::Function* build_counters(ir::Module& m, const NoiseSpec& spec,
                                   unsigned& line) {
  ir::IRBuilder b(&m);
  ir::Function* f = m.add_function(spec.tag + "_counters", ir::Type::void_type());
  ir::BasicBlock* bb = f->add_block("entry");
  b.set_insert_point(bb);
  for (unsigned i = 0; i < spec.counters; ++i) {
    ir::GlobalVariable* ctr =
        m.add_global(spec.tag + "_ctr" + std::to_string(i));
    b.set_loc(spec.tag + "_noise.c", line++);
    ir::Instruction* v = b.load(ctr);
    b.set_loc(spec.tag + "_noise.c", line++);
    b.store(b.add(v, b.i64(1)), ctr);
  }
  b.ret();
  return f;
}

/// One-shot publication chain. The writer fills data slots, then opens the
/// gates in REVERSE order (gate_{L-1} ... gate_0). The reader (after an IO
/// delay so detection runs see the full descent) descends through the gates
/// in forward order. Re-verifying any inner report parks the writer before
/// gate_0 is ever written, so the reader bails out at the first gate and
/// the race cannot be caught in the racing moment — eliminated (R.V.E.).
/// Only the outermost gate_0 race re-verifies.
void build_publication(ir::Module& m, const NoiseSpec& spec, unsigned& line,
                       std::vector<ir::Function*>& entries) {
  const unsigned depth = spec.publication_depth;
  if (depth == 0) return;

  std::vector<ir::GlobalVariable*> gates;
  std::vector<ir::GlobalVariable*> slots;
  for (unsigned i = 0; i < depth; ++i) {
    gates.push_back(m.add_global(spec.tag + "_gate" + std::to_string(i)));
    slots.push_back(m.add_global(spec.tag + "_slot" + std::to_string(i)));
  }

  ir::IRBuilder b(&m);
  {
    ir::Function* writer =
        m.add_function(spec.tag + "_pub_writer", ir::Type::void_type());
    b.set_insert_point(writer->add_block("entry"));
    for (unsigned i = 0; i < depth; ++i) {
      b.set_loc(spec.tag + "_noise.c", line++);
      b.store(b.i64(40 + i), slots[i]);
    }
    for (unsigned i = depth; i-- > 0;) {
      b.set_loc(spec.tag + "_noise.c", line++);
      b.store(b.i64(1), gates[i]);
    }
    b.ret();
    entries.push_back(writer);
  }
  {
    ir::Function* reader =
        m.add_function(spec.tag + "_pub_reader", ir::Type::void_type());
    ir::BasicBlock* bb = reader->add_block("entry");
    b.set_insert_point(bb);
    b.set_loc(spec.tag + "_noise.c", line++);
    // Sleep long enough for the writer to finish under any schedule, so
    // detection runs observe the full descent (the delay scales with the
    // chain because the writer's store count does too).
    b.io_delay(b.i64(100 + 30 * static_cast<std::int64_t>(depth)));
    ir::BasicBlock* done = reader->add_block("done");
    for (unsigned i = 0; i < depth; ++i) {
      b.set_loc(spec.tag + "_noise.c", line++);
      ir::Instruction* g = b.load(gates[i]);
      ir::Instruction* open =
          b.icmp(ir::CmpPredicate::kEq, g, b.i64(1));
      ir::BasicBlock* next =
          reader->add_block("lvl" + std::to_string(i));
      b.br(open, next, done);
      b.set_insert_point(next);
      b.set_loc(spec.tag + "_noise.c", line++);
      b.load(slots[i]);
    }
    b.jmp(done);
    b.set_insert_point(done);
    b.ret();
    entries.push_back(reader);
  }
}

/// Busy-wait adhoc synchronizations guarding blocks of shared data — the
/// SyncFinder pattern §5.1 classifies and annotates. Every report they
/// generate vanishes on the annotated re-run (the A.S. reduction).
void build_adhoc(ir::Module& m, const NoiseSpec& spec, unsigned& line,
                 std::vector<ir::Function*>& entries) {
  if (spec.adhoc_groups == 0) return;

  std::vector<ir::GlobalVariable*> flags;
  std::vector<std::vector<ir::GlobalVariable*>> guarded(spec.adhoc_groups);
  for (unsigned g = 0; g < spec.adhoc_groups; ++g) {
    flags.push_back(m.add_global(spec.tag + "_flag" + std::to_string(g)));
    for (unsigned d = 0; d < spec.adhoc_guarded; ++d) {
      guarded[g].push_back(m.add_global(
          spec.tag + "_guard" + std::to_string(g) + "_" + std::to_string(d)));
    }
  }

  ir::IRBuilder b(&m);
  {
    // The setter initializes each guarded block, then raises its flag.
    ir::Function* setter =
        m.add_function(spec.tag + "_adhoc_setter", ir::Type::void_type());
    b.set_insert_point(setter->add_block("entry"));
    for (unsigned g = 0; g < spec.adhoc_groups; ++g) {
      for (ir::GlobalVariable* cell : guarded[g]) {
        b.set_loc(spec.tag + "_noise.c", line++);
        b.store(b.i64(7), cell);
      }
      b.set_loc(spec.tag + "_noise.c", line++);
      b.io_delay(b.i64(3));
      b.set_loc(spec.tag + "_noise.c", line++);
      b.store(b.i64(1), flags[g]);  // the "flag = true" the paper annotates
    }
    b.ret();
    entries.push_back(setter);
  }
  {
    // The waiter busy-waits on each flag, then consumes the guarded block.
    // Blocks are created up front so jumps can reference their targets.
    ir::Function* waiter =
        m.add_function(spec.tag + "_adhoc_waiter", ir::Type::void_type());
    ir::BasicBlock* entry_bb = waiter->add_block("entry");
    std::vector<ir::BasicBlock*> headers, spins, consumes;
    for (unsigned g = 0; g < spec.adhoc_groups; ++g) {
      headers.push_back(waiter->add_block("wait" + std::to_string(g)));
      spins.push_back(waiter->add_block("spin" + std::to_string(g)));
      consumes.push_back(waiter->add_block("consume" + std::to_string(g)));
    }
    ir::BasicBlock* done = waiter->add_block("done");

    b.set_insert_point(entry_bb);
    b.jmp(headers.front());
    for (unsigned g = 0; g < spec.adhoc_groups; ++g) {
      b.set_insert_point(headers[g]);
      b.set_loc(spec.tag + "_noise.c", line++);
      ir::Instruction* f = b.load(flags[g]);
      ir::Instruction* set = b.icmp(ir::CmpPredicate::kNe, f, b.i64(0));
      b.br(set, consumes[g], spins[g]);
      b.set_insert_point(spins[g]);
      b.set_loc(spec.tag + "_noise.c", line++);
      b.io_delay(b.i64(2));
      b.jmp(headers[g]);
      b.set_insert_point(consumes[g]);
      for (ir::GlobalVariable* cell : guarded[g]) {
        b.set_loc(spec.tag + "_noise.c", line++);
        b.load(cell);
      }
      b.jmp(g + 1 < spec.adhoc_groups ? headers[g + 1] : done);
    }
    b.set_insert_point(done);
    b.ret();
    entries.push_back(waiter);
  }
}

/// Benign counter races whose value flows (bounded) into a memcpy — they
/// reach a memory-operation site statically, so OWL keeps them as residual
/// vulnerability reports, but the bound keeps the attack unrealizable.
ir::Function* build_safe_sites(ir::Module& m, const NoiseSpec& spec,
                                     unsigned& line) {
  ir::IRBuilder b(&m);
  ir::Function* f =
      m.add_function(spec.tag + "_stats", ir::Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  ir::GlobalVariable* src = m.add_global(spec.tag + "_stat_src", 8, 5);
  for (unsigned i = 0; i < spec.safe_site_groups; ++i) {
    ir::GlobalVariable* stat =
        m.add_global(spec.tag + "_stat" + std::to_string(i));
    ir::GlobalVariable* buf =
        m.add_global(spec.tag + "_statbuf" + std::to_string(i), 8);
    b.set_loc(spec.tag + "_noise.c", line++);
    ir::Instruction* v = b.load(stat);
    b.set_loc(spec.tag + "_noise.c", line++);
    b.store(b.add(v, b.i64(1)), stat);
    // Bounded use of the racy value: len in [0,3], buffer holds 8.
    b.set_loc(spec.tag + "_noise.c", line++);
    ir::Instruction* len = b.and_(v, b.i64(3));
    b.set_loc(spec.tag + "_noise.c", line++);
    b.memcpy_(buf, src, len);
  }
  b.ret();
  return f;
}

}  // namespace

std::vector<ir::Function*> add_noise(ir::Module& module,
                                     const NoiseSpec& spec) {
  std::vector<ir::Function*> entries;
  unsigned line = 1000;

  if (spec.counters > 0) {
    ir::Function* counters = build_counters(module, spec, line);
    entries.push_back(counters);
    entries.push_back(counters);  // two racing incrementers
  }
  build_publication(module, spec, line, entries);
  build_adhoc(module, spec, line, entries);
  if (spec.safe_site_groups > 0) {
    ir::Function* stats = build_safe_sites(module, spec, line);
    entries.push_back(stats);
    entries.push_back(stats);
  }
  return entries;
}

}  // namespace owl::workloads
