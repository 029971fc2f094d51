// Pins MiniIR's opcode table (ir::op_info) to the layers it describes: the
// interpreter's Observer::Access events, the IRBuilder and the parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "interp/machine.hpp"
#include "interp/scheduler.hpp"
#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace owl::ir {
namespace {

std::string operand_global(int index) { return "g" + std::to_string(index); }

struct Instance {
  std::unique_ptr<Module> module;
  Instruction* instr = nullptr;
};

/// A module whose @main executes one instance of `op`, built by its
/// IRBuilder call. Fixed operand i is the 4-cell global @gi when the table
/// says it holds an address and the constant i + 1 otherwise.
Instance build_instance(Opcode op) {
  Instance out{std::make_unique<Module>("op"), nullptr};
  Module& m = *out.module;
  IRBuilder b(&m);
  const OpInfo& info = op_info(op);
  std::vector<Value*> v;
  for (int i = 0; i < std::max(info.arity, 0); ++i) {
    if (((info.addresses >> i) & 1u) != 0) {
      v.push_back(m.add_global(operand_global(i), /*cell_count=*/4));
    } else {
      v.push_back(m.i64(i + 1));
    }
  }
  Function* callee = m.add_function("callee", Type::void_type());
  b.set_insert_point(callee->add_block("entry"));
  b.ret();
  Function* main = m.add_function("main", Type::void_type());
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* next = main->add_block("next");
  b.set_insert_point(entry);
  Instruction*& i = out.instr;
  switch (op) {
    case Opcode::kAdd: i = b.add(v[0], v[1]); break;
    case Opcode::kSub: i = b.sub(v[0], v[1]); break;
    case Opcode::kMul: i = b.mul(v[0], v[1]); break;
    case Opcode::kUDiv: i = b.udiv(v[0], v[1]); break;
    case Opcode::kSDiv: i = b.sdiv(v[0], v[1]); break;
    case Opcode::kAnd: i = b.and_(v[0], v[1]); break;
    case Opcode::kOr: i = b.or_(v[0], v[1]); break;
    case Opcode::kXor: i = b.xor_(v[0], v[1]); break;
    case Opcode::kShl: i = b.shl(v[0], v[1]); break;
    case Opcode::kLShr: i = b.lshr(v[0], v[1]); break;
    case Opcode::kICmp: i = b.icmp(CmpPredicate::kEq, v[0], v[1]); break;
    case Opcode::kAlloca: i = b.alloca_cells(1); break;
    case Opcode::kMalloc: i = b.malloc_cells(v[0]); break;
    case Opcode::kFree: i = b.free_ptr(v[0]); break;
    case Opcode::kLoad: i = b.load(v[0]); break;
    case Opcode::kStore: i = b.store(v[0], v[1]); break;
    case Opcode::kGep: i = b.gep(v[0], v[1]); break;
    case Opcode::kBr: i = b.br(v[0], next, next); break;
    case Opcode::kJmp: i = b.jmp(next); break;
    case Opcode::kPhi:
      b.jmp(next);
      b.set_insert_point(next);
      i = b.phi(Type::i64());
      i->add_phi_incoming(m.i64(0), entry);
      break;
    case Opcode::kCall: i = b.call(callee, {}); break;
    case Opcode::kCallPtr: i = b.callptr(callee, {}); break;
    case Opcode::kRet: i = b.ret(); break;
    case Opcode::kLock: i = b.lock(v[0]); break;
    case Opcode::kUnlock: i = b.unlock(v[0]); break;
    case Opcode::kThreadCreate: i = b.thread_create(callee, v[0]); break;
    case Opcode::kThreadJoin: i = b.thread_join(v[0]); break;
    case Opcode::kAtomicRMWAdd: i = b.atomic_add(v[0], v[1]); break;
    case Opcode::kHbRelease: i = b.hb_release(v[0]); break;
    case Opcode::kHbAcquire: i = b.hb_acquire(v[0]); break;
    case Opcode::kInput: i = b.input(v[0]); break;
    case Opcode::kIoDelay: i = b.io_delay(v[0]); break;
    case Opcode::kYield: i = b.yield(); break;
    case Opcode::kPrint: i = b.print(v[0]); break;
    case Opcode::kStrCpy: i = b.strcpy_(v[0], v[1]); break;
    case Opcode::kMemCopy: i = b.memcpy_(v[0], v[1], v[2]); break;
    case Opcode::kSetUid: i = b.setuid_(v[0]); break;
    case Opcode::kFileAccess: i = b.file_access(v[0]); break;
    case Opcode::kFileOpen: i = b.file_open(v[0]); break;
    case Opcode::kFileWrite: i = b.file_write(v[0], v[1], v[2]); break;
    case Opcode::kFork: i = b.fork_(); break;
    case Opcode::kEval: i = b.eval_(v[0]); break;
  }
  if (!entry->instructions().back()->is_terminator()) {
    b.set_insert_point(entry);
    b.jmp(next);
  }
  if (next->empty() || !next->instructions().back()->is_terminator()) {
    b.set_insert_point(next);
    b.ret();
  }
  return out;
}

class AccessLog final : public interp::Observer {
 public:
  void on_access(const Access& access, const interp::Machine&) override {
    accesses.push_back(access);
  }
  void on_sync(const Sync&, const interp::Machine&) override {}

  std::vector<Access> accesses;
};

TEST(OpTableTest, MemoryOperandsMatchInterpreter) {
  using Seen = std::tuple<interp::Address, bool, bool>;  // addr, write, atomic
  for (std::size_t k = 0; k < kOpcodeCount; ++k) {
    const auto op = static_cast<Opcode>(k);
    SCOPED_TRACE(std::string(opcode_name(op)));
    Instance instance = build_instance(op);
    ASSERT_TRUE(verify_module(*instance.module).is_ok());
    interp::Machine machine(*instance.module, interp::MachineOptions{});
    AccessLog log;
    machine.add_observer(&log);
    machine.start(instance.module->find_function("main"));
    interp::RandomScheduler scheduler(1);
    machine.run(scheduler);

    const OpInfo& info = op_info(op);
    std::vector<Seen> want;
    if (info.read != OpInfo::kNone) {
      want.emplace_back(machine.global_address(operand_global(info.read)),
                        false, info.atomic);
    }
    if (info.written != OpInfo::kNone) {
      want.emplace_back(machine.global_address(operand_global(info.written)),
                        true, info.atomic);
    }
    std::vector<Seen> seen;
    for (const interp::Observer::Access& access : log.accesses) {
      EXPECT_EQ(access.instr, instance.instr);
      seen.emplace_back(access.addr, access.is_write, access.is_atomic);
    }
    EXPECT_EQ(seen, want);
  }
}

TEST(OpTableTest, BuilderAndParserAgreeOnResultTypes) {
  for (std::size_t k = 0; k < kOpcodeCount; ++k) {
    const auto op = static_cast<Opcode>(k);
    SCOPED_TRACE(std::string(opcode_name(op)));
    const Instance instance = build_instance(op);
    if (op != Opcode::kCall && op != Opcode::kPhi) {
      EXPECT_EQ(instance.instr->type(), op_info(op).result);
    }
    auto parsed = parse_module(print_module(*instance.module));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    const BasicBlock* block = instance.instr->parent();
    const auto& built = block->instructions();
    const auto at = static_cast<std::size_t>(
        std::find_if(built.begin(), built.end(),
                     [&](const auto& i) { return i.get() == instance.instr; }) -
        built.begin());
    const Instruction& twin = *parsed.value()
                                   ->find_function("main")
                                   ->find_block(block->label())
                                   ->instructions()
                                   .at(at);
    EXPECT_EQ(twin.opcode(), op);
    EXPECT_EQ(twin.type(), instance.instr->type());
  }
}

TEST(OpTableTest, PlainAddressOfLoadAndStore) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("g");
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  Instruction* ld = b.load(g);
  Instruction* st = b.store(b.i64(1), g);
  Instruction* at = b.atomic_add(g, b.i64(1));
  Instruction* cp = b.callptr(ld, {});

  EXPECT_EQ(ld->accessed_address(/*write=*/false), g);
  EXPECT_EQ(ld->accessed_address(/*write=*/true), nullptr);
  EXPECT_EQ(st->accessed_address(/*write=*/true), g);
  // atomic_add is one atomic write; the interpreter reports no read.
  EXPECT_EQ(at->accessed_address(/*write=*/false), nullptr);
  EXPECT_EQ(at->accessed_address(/*write=*/true), g);
  EXPECT_TRUE(at->info().atomic);

  EXPECT_EQ(ld->plain_address(), ld->operand(0));
  EXPECT_EQ(st->plain_address(), st->operand(1));
  EXPECT_EQ(at->plain_address(), nullptr);
  EXPECT_EQ(cp->plain_address(), nullptr);
  EXPECT_EQ(b.add(ld, ld)->plain_address(), nullptr);
}

}  // namespace
}  // namespace owl::ir
