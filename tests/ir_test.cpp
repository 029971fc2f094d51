// Unit tests for MiniIR construction, printing and verification.
#include <gtest/gtest.h>

#include "interp/machine.hpp"
#include "interp/scheduler.hpp"
#include "ir/builder.hpp"
#include "ir/loops.hpp"
#include "ir/module.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace owl::ir {
namespace {

TEST(TypeTest, NamesAndPredicates) {
  EXPECT_EQ(Type::void_type().name(), "void");
  EXPECT_EQ(Type::i1().name(), "i1");
  EXPECT_EQ(Type::i64().name(), "i64");
  EXPECT_EQ(Type::ptr().name(), "ptr");
  EXPECT_TRUE(Type::i1().is_integer());
  EXPECT_TRUE(Type::i64().is_integer());
  EXPECT_FALSE(Type::ptr().is_integer());
  EXPECT_TRUE(Type::ptr().is_ptr());
}

TEST(TypeTest, ParseRoundTrip) {
  for (const Type t : {Type::void_type(), Type::i1(), Type::i64(),
                       Type::ptr()}) {
    Type parsed;
    ASSERT_TRUE(parse_type(t.name(), parsed));
    EXPECT_EQ(parsed, t);
  }
  Type t;
  EXPECT_FALSE(parse_type("i32", t));
}

TEST(OpcodeTest, NameRoundTripForAllOpcodes) {
  // Spot-check the full mnemonic table through its inverse.
  for (const Opcode op :
       {Opcode::kAdd, Opcode::kICmp, Opcode::kLoad, Opcode::kStore,
        Opcode::kBr, Opcode::kPhi, Opcode::kCall, Opcode::kCallPtr,
        Opcode::kThreadCreate, Opcode::kHbRelease, Opcode::kStrCpy,
        Opcode::kSetUid, Opcode::kFork, Opcode::kEval, Opcode::kFileWrite}) {
    Opcode parsed;
    ASSERT_TRUE(parse_opcode(opcode_name(op), parsed))
        << opcode_name(op);
    EXPECT_EQ(parsed, op);
  }
  Opcode op;
  EXPECT_FALSE(parse_opcode("frobnicate", op));
}

TEST(ModuleTest, ConstantsAreUniqued) {
  Module m("t");
  EXPECT_EQ(m.i64(5), m.i64(5));
  EXPECT_NE(m.i64(5), m.i64(6));
  EXPECT_NE(static_cast<Value*>(m.i64(0)), static_cast<Value*>(m.null_ptr()));
  EXPECT_TRUE(m.null_ptr()->is_null_pointer());
  EXPECT_FALSE(m.i64(0)->is_null_pointer());
}

TEST(ModuleTest, GlobalAndFunctionLookup) {
  Module m("t");
  GlobalVariable* g = m.add_global("flag", 2, 7);
  Function* f = m.add_function("work", Type::i64());
  EXPECT_EQ(m.find_global("flag"), g);
  EXPECT_EQ(m.find_global("missing"), nullptr);
  EXPECT_EQ(m.find_function("work"), f);
  EXPECT_EQ(m.find_function("missing"), nullptr);
  EXPECT_EQ(g->cell_count(), 2u);
  EXPECT_EQ(g->initial_value(), 7);
}

TEST(ModuleTest, ValueIdsAreUnique) {
  Module m("t");
  GlobalVariable* g = m.add_global("a");
  Function* f = m.add_function("f", Type::void_type());
  Constant* c = m.i64(1);
  EXPECT_NE(g->id(), f->id());
  EXPECT_NE(f->id(), c->id());
  EXPECT_NE(g->id(), c->id());
}

TEST(BuilderTest, BuildsWellFormedFunction) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("g");
  Function* f = m.add_function("f", Type::i64());
  BasicBlock* entry = f->add_block("entry");
  BasicBlock* then_bb = f->add_block("then");
  BasicBlock* else_bb = f->add_block("else");
  b.set_insert_point(entry);
  Instruction* v = b.load(g, "v");
  Instruction* c = b.icmp(CmpPredicate::kEq, v, b.i64(0), "c");
  b.br(c, then_bb, else_bb);
  b.set_insert_point(then_bb);
  b.ret(b.i64(1));
  b.set_insert_point(else_bb);
  b.ret(b.i64(2));

  EXPECT_TRUE(verify_module(m).is_ok());
  EXPECT_EQ(f->instruction_count(), 5u);
  EXPECT_EQ(m.instruction_count(), 5u);
  EXPECT_EQ(v->function(), f);
  EXPECT_EQ(entry->terminator()->opcode(), Opcode::kBr);
  EXPECT_EQ(entry->successors().size(), 2u);
}

TEST(BuilderTest, SourceLocationsStamp) {
  Module m("t");
  IRBuilder b(&m);
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  b.set_loc("file.c", 42);
  Instruction* i = b.yield();
  EXPECT_EQ(i->loc().file, "file.c");
  EXPECT_EQ(i->loc().line, 42u);
  b.set_line(43);
  EXPECT_EQ(b.ret()->loc().line, 43u);
  EXPECT_EQ(i->loc().to_string(), "file.c:42");
}

TEST(BuilderTest, CallWiresCalleeAndType) {
  Module m("t");
  IRBuilder b(&m);
  Function* callee = m.add_function("callee", Type::i64());
  callee->add_argument(Type::i64(), "x");
  {
    b.set_insert_point(callee->add_block("entry"));
    b.ret(b.i64(0));
  }
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  Instruction* call = b.call(callee, {b.i64(3)}, "r");
  b.ret();
  EXPECT_EQ(call->callee(), callee);
  EXPECT_EQ(call->type(), Type::i64());
  EXPECT_TRUE(verify_module(m).is_ok());
}

// loop_header + loop_latch build `for (i = 0; i < n; ++i) print(i)`: one
// natural loop whose body runs exactly n times.
TEST(BuilderTest, CountedLoopRunsBodyBoundTimes) {
  Module m("t");
  IRBuilder b(&m);
  Function* f = m.add_function("main", Type::void_type());
  BasicBlock* entry = f->add_block("entry");
  BasicBlock* header = f->add_block("header");
  BasicBlock* body = f->add_block("body");
  BasicBlock* done = f->add_block("done");
  b.set_insert_point(entry);
  b.set_loc("loop.c", 1);
  const IRBuilder::CountedLoop loop =
      b.loop_header(header, b.input(b.i64(0), "n"), body, done);
  EXPECT_EQ(b.insert_point(), body);
  b.set_loc("loop.c", 2);
  b.print(loop.index);
  b.loop_latch(loop);
  EXPECT_EQ(b.insert_point(), done);
  b.ret();

  ASSERT_TRUE(verify_module(m).is_ok());
  EXPECT_EQ(loop.preheader, entry);
  EXPECT_EQ(loop.index->parent(), header);
  EXPECT_EQ(loop.index->loc().to_string(), "loop.c:1");
  const LoopInfo loops(*f);
  ASSERT_EQ(loops.loops().size(), 1u);
  EXPECT_EQ(loops.loops().front().header, header);
  EXPECT_TRUE(loops.loops().front().contains(body));
  EXPECT_FALSE(loops.loops().front().contains(done));

  for (const interp::Word bound : {0, 3}) {
    interp::Machine machine(m, {.inputs = {bound}});
    machine.start(f);
    interp::RoundRobinScheduler scheduler;
    ASSERT_EQ(machine.run(scheduler).reason,
              interp::StopReason::kAllFinished);
    std::vector<interp::Word> expected;
    for (interp::Word i = 0; i < bound; ++i) expected.push_back(i);
    EXPECT_EQ(machine.prints(), expected) << "bound " << bound;
  }
}

TEST(InstructionTest, ClassificationHelpers) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("g");
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  Instruction* ld = b.load(g);
  Instruction* rt = b.ret();

  EXPECT_TRUE(rt->is_terminator());
  EXPECT_FALSE(ld->is_terminator());
}

TEST(VerifierTest, RejectsEmptyBlock) {
  Module m("t");
  Function* f = m.add_function("f", Type::void_type());
  f->add_block("entry");
  const Status s = verify_module(m);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("empty"), std::string::npos);
}

TEST(VerifierTest, RejectsMissingTerminator) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("g");
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  b.load(g);
  EXPECT_FALSE(verify_module(m).is_ok());
}

TEST(VerifierTest, RejectsCallArityMismatch) {
  Module m("t");
  IRBuilder b(&m);
  Function* callee = m.add_function("callee", Type::void_type());
  callee->add_argument(Type::i64(), "x");
  b.set_insert_point(callee->add_block("entry"));
  b.ret();
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  b.call(callee, {});  // missing argument
  b.ret();
  const Status s = verify_module(m);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("arity"), std::string::npos);
}

TEST(VerifierTest, RejectsWrongFixedOperandCount) {
  // Too many operands on nullary ops, too few on unary and binary ones,
  // and an indirect call without its target: every operand index the
  // interpreter reads must exist in a verified module.
  const auto build = [](Opcode op, int operands) {
    auto m = std::make_unique<Module>("t");
    IRBuilder b(m.get());
    Function* f = m->add_function("f", Type::void_type());
    b.set_insert_point(f->add_block("entry"));
    auto instr = std::make_unique<Instruction>(op, "");
    for (int i = 0; i < operands; ++i) instr->add_operand(b.i64(i + 1));
    f->entry()->append(std::move(instr));
    b.ret();
    return m;
  };
  for (const auto& [op, operands] :
       std::vector<std::pair<Opcode, int>>{{Opcode::kFork, 1},
                                           {Opcode::kYield, 1},
                                           {Opcode::kPrint, 0},
                                           {Opcode::kAdd, 1},
                                           {Opcode::kMemCopy, 2}}) {
    const auto m = build(op, operands);
    const Status s = verify_module(*m);
    EXPECT_FALSE(s.is_ok()) << opcode_name(op);
    EXPECT_NE(s.message().find("wrong operand count for " +
                               std::string(opcode_name(op))),
              std::string::npos)
        << s.message();
  }
  const auto callptr = build(Opcode::kCallPtr, 0);
  EXPECT_FALSE(verify_module(*callptr).is_ok());
  // The same ops at their table arity verify.
  EXPECT_TRUE(verify_module(*build(Opcode::kFork, 0)).is_ok());
  EXPECT_TRUE(verify_module(*build(Opcode::kYield, 0)).is_ok());
  EXPECT_TRUE(verify_module(*build(Opcode::kPrint, 1)).is_ok());
  EXPECT_TRUE(verify_module(*build(Opcode::kCallPtr, 1)).is_ok());
}

TEST(VerifierTest, RejectsReturnValueFromVoidFunction) {
  Module m("t");
  IRBuilder b(&m);
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  b.ret(b.i64(1));
  EXPECT_FALSE(verify_module(m).is_ok());
}

TEST(VerifierTest, RejectsMissingReturnValue) {
  Module m("t");
  IRBuilder b(&m);
  Function* f = m.add_function("f", Type::i64());
  b.set_insert_point(f->add_block("entry"));
  b.ret();
  EXPECT_FALSE(verify_module(m).is_ok());
}

TEST(VerifierTest, RejectsCrossFunctionOperand) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("g");
  Function* f1 = m.add_function("f1", Type::void_type());
  b.set_insert_point(f1->add_block("entry"));
  Instruction* v = b.load(g);
  b.ret();
  Function* f2 = m.add_function("f2", Type::void_type());
  b.set_insert_point(f2->add_block("entry"));
  b.print(v);  // v belongs to f1
  b.ret();
  EXPECT_FALSE(verify_module(m).is_ok());
}

TEST(PrinterTest, RendersGlobalsAndFunctions) {
  Module m("demo");
  IRBuilder b(&m);
  m.add_global("dying", 1, 0);
  m.add_global("table", 4, 9);
  Function* f = m.add_function("f", Type::i64());
  f->add_argument(Type::ptr(), "p");
  b.set_insert_point(f->add_block("entry"));
  b.set_loc("x.c", 5);
  Instruction* v = b.load(f->argument(0), "v");
  b.ret(v);

  const std::string out = print_module(m);
  EXPECT_NE(out.find("module demo"), std::string::npos);
  EXPECT_NE(out.find("global @dying [1]"), std::string::npos);
  EXPECT_NE(out.find("global @table [4] = 9"), std::string::npos);
  EXPECT_NE(out.find("func @f(ptr %p) -> i64 {"), std::string::npos);
  EXPECT_NE(out.find("%v = load %p  !x.c:5"), std::string::npos);
  EXPECT_NE(out.find("ret %v"), std::string::npos);
}

TEST(PrinterTest, NamesUnnamedValuesDeterministically) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("g");
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  Instruction* a = b.load(g);
  Instruction* c = b.add(a, b.i64(1));
  b.store(c, g);
  b.ret();
  const std::string out = print_function(*f);
  EXPECT_NE(out.find("%t0 = load @g"), std::string::npos);
  EXPECT_NE(out.find("%t1 = add %t0, 1"), std::string::npos);
  EXPECT_NE(out.find("store %t1, @g"), std::string::npos);
}

TEST(PrinterTest, SingleInstructionQuoting) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("dying");
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  b.set_loc("libsafe.c", 1640);
  Instruction* st = b.store(b.i64(1), g);
  b.ret();
  EXPECT_EQ(print_instruction(*st), "store 1, @dying  !libsafe.c:1640");
}

TEST(PrinterTest, PhiAndBranchSyntax) {
  Module m("t");
  IRBuilder b(&m);
  Function* f = m.add_function("f", Type::i64());
  BasicBlock* entry = f->add_block("entry");
  BasicBlock* loop = f->add_block("loop");
  BasicBlock* out = f->add_block("out");
  b.set_insert_point(entry);
  b.jmp(loop);
  b.set_insert_point(loop);
  Instruction* i = b.phi(Type::i64(), "i");
  Instruction* next = b.add(i, b.i64(1), "next");
  Instruction* c = b.icmp(CmpPredicate::kSLt, next, b.i64(10), "c");
  b.br(c, loop, out);
  i->add_phi_incoming(b.i64(0), entry);
  i->add_phi_incoming(next, loop);
  b.set_insert_point(out);
  b.ret(i);

  const std::string out_text = print_function(*f);
  EXPECT_NE(out_text.find("%i = phi [0, entry], [%next, loop]"),
            std::string::npos);
  EXPECT_NE(out_text.find("br %c, loop, out"), std::string::npos);
  EXPECT_NE(out_text.find("icmp slt %next, 10"), std::string::npos);
  EXPECT_TRUE(verify_module(m).is_ok());
}

}  // namespace
}  // namespace owl::ir
