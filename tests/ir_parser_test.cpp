// Unit tests for the textual MiniIR parser, including printer round trips.
#include <gtest/gtest.h>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace owl::ir {
namespace {

std::unique_ptr<Module> parse_ok(std::string_view text) {
  auto result = parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value();
}

void expect_parse_error(std::string_view text, std::string_view fragment) {
  auto result = parse_module(text);
  ASSERT_FALSE(result.is_ok()) << "expected failure for: " << text;
  EXPECT_NE(result.status().message().find(fragment), std::string::npos)
      << result.status().message();
}

TEST(ParserTest, EmptyModule) {
  auto m = parse_ok("module empty\n");
  EXPECT_EQ(m->name(), "empty");
  EXPECT_TRUE(m->functions().empty());
}

TEST(ParserTest, Globals) {
  auto m = parse_ok(R"(module g
global @flag
global @buf [16]
global @init [2] = 7
)");
  EXPECT_EQ(m->find_global("flag")->cell_count(), 1u);
  EXPECT_EQ(m->find_global("buf")->cell_count(), 16u);
  EXPECT_EQ(m->find_global("init")->initial_value(), 7);
}

TEST(ParserTest, SimpleFunction) {
  auto m = parse_ok(R"(module t
global @g
func @f(i64 %x) -> i64 {
entry:
  %v = load @g
  %s = add %v, %x
  ret %s
}
)");
  Function* f = m->find_function("f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->arguments().size(), 1u);
  EXPECT_EQ(f->instruction_count(), 3u);
  EXPECT_TRUE(verify_module(*m).is_ok());
}

TEST(ParserTest, ControlFlowAndPhi) {
  auto m = parse_ok(R"(module t
func @count() -> i64 {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  %n = add %i, 1
  %c = icmp slt %n, 10
  br %c, loop, out
out:
  ret %i
}
)");
  Function* f = m->find_function("count");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(verify_module(*m).is_ok());
  // The phi's back-edge value %n was a forward reference; it must resolve
  // to the add instruction, not a placeholder.
  const Instruction* phi = f->find_block("loop")->front();
  ASSERT_EQ(phi->opcode(), Opcode::kPhi);
  ASSERT_EQ(phi->phi_values().size(), 2u);
  EXPECT_TRUE(phi->phi_values()[1]->is_instruction());
}

TEST(ParserTest, CallsAndThreads) {
  auto m = parse_ok(R"(module t
global @mu
func @worker(i64 %arg) {
entry:
  lock @mu
  unlock @mu
  ret
}
func @helper(i64 %a, i64 %b) -> i64 {
entry:
  %s = add %a, %b
  ret %s
}
func @main() {
entry:
  %t = thread_create @worker, 5
  %r = call @helper(1, 2)
  thread_join %t
  ret
}
)");
  EXPECT_TRUE(verify_module(*m).is_ok());
  const Function* main_fn = m->find_function("main");
  const Instruction* tc = main_fn->entry()->front();
  EXPECT_EQ(tc->opcode(), Opcode::kThreadCreate);
  EXPECT_EQ(tc->callee(), m->find_function("worker"));
}

TEST(ParserTest, CallResultTypeFollowsCallee) {
  auto m = parse_ok(R"(module t
func @v() {
entry:
  ret
}
func @main() {
entry:
  call @v()
  ret
}
)");
  const Instruction* call = m->find_function("main")->entry()->front();
  EXPECT_TRUE(call->type().is_void());
}

TEST(ParserTest, VulnerableSiteIntrinsics) {
  auto m = parse_ok(R"(module t
global @buf [8]
global @src [8]
func @f() {
entry:
  strcpy @buf, @src
  memcpy @buf, @src, 4
  setuid 0
  %a = file_access 1
  %fd = file_open 2
  file_write %fd, @buf, 8
  %pid = fork
  eval 9
  ret
}
)");
  EXPECT_TRUE(verify_module(*m).is_ok());
  EXPECT_EQ(m->find_function("f")->instruction_count(), 9u);
}

TEST(ParserTest, CommentsAndBlankLines) {
  auto m = parse_ok(R"(module t
; a full-line comment

func @f() {
entry:
  yield  ; trailing comment
  ret
}
)");
  EXPECT_EQ(m->find_function("f")->instruction_count(), 2u);
}

TEST(ParserTest, LocationSuffix) {
  auto m = parse_ok(R"(module t
global @g
func @f() {
entry:
  %v = load @g  !util.c:145
  ret
}
)");
  const Instruction* load = m->find_function("f")->entry()->front();
  EXPECT_EQ(load->loc().file, "util.c");
  EXPECT_EQ(load->loc().line, 145u);
}

TEST(ParserTest, NullLiteral) {
  auto m = parse_ok(R"(module t
global @p
func @f() {
entry:
  store null, @p
  ret
}
)");
  const Instruction* st = m->find_function("f")->entry()->front();
  EXPECT_TRUE(static_cast<const Constant*>(st->operand(0))->is_null_pointer());
}

TEST(ParserTest, ExternalFunctionDeclaration) {
  auto m = parse_ok(R"(module t
func @libc_read(i64 %fd) -> i64 external
func @f() {
entry:
  %r = call @libc_read(0)
  ret
}
)");
  EXPECT_FALSE(m->find_function("libc_read")->is_internal());
  EXPECT_FALSE(m->find_function("libc_read")->has_body());
  EXPECT_TRUE(verify_module(*m).is_ok());
}

// ---- error cases ----

TEST(ParserErrorTest, UnknownOpcode) {
  expect_parse_error("module t\nfunc @f() {\nentry:\n  bogus 1\n}\n",
                     "unknown opcode");
}

TEST(ParserErrorTest, UndefinedValue) {
  expect_parse_error("module t\nfunc @f() {\nentry:\n  print %nope\n  ret\n}\n",
                     "undefined value");
}

TEST(ParserErrorTest, UnknownGlobal) {
  expect_parse_error("module t\nfunc @f() {\nentry:\n  %v = load @gone\n  ret\n}\n",
                     "unknown global");
}

TEST(ParserErrorTest, UnknownLabel) {
  expect_parse_error("module t\nfunc @f() {\nentry:\n  jmp nowhere\n}\n",
                     "unknown label");
}

TEST(ParserErrorTest, DuplicateGlobal) {
  expect_parse_error("module t\nglobal @g\nglobal @g\n", "duplicate global");
}

TEST(ParserErrorTest, DuplicateFunction) {
  expect_parse_error(
      "module t\nfunc @f() {\nentry:\n  ret\n}\nfunc @f() {\nentry:\n  ret\n}\n",
      "duplicate function");
}

TEST(ParserErrorTest, DuplicateLabel) {
  expect_parse_error(
      "module t\nfunc @f() {\nentry:\n  ret\nentry:\n  ret\n}\n",
      "duplicate label");
}

TEST(ParserErrorTest, MissingClosingBrace) {
  expect_parse_error("module t\nfunc @f() {\nentry:\n  ret\n", "'}' expected");
}

TEST(ParserErrorTest, WrongOperandCount) {
  expect_parse_error("module t\nglobal @g\nfunc @f() {\nentry:\n  %v = load @g, @g\n  ret\n}\n",
                     "wrong operand count");
}

TEST(ParserErrorTest, OperandOnANullaryOpIsRejected) {
  expect_parse_error(
      "module t\nfunc @f() {\nentry:\n  %p = fork 5\n  ret\n}\n",
      "wrong operand count for fork");
  expect_parse_error("module t\nfunc @f() {\nentry:\n  yield 7\n  ret\n}\n",
                     "wrong operand count for yield");
}

TEST(ParserErrorTest, ErrorsCarryLineNumbers) {
  auto result = parse_module("module t\nglobal @g\nwhat\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
}

// ---- printer/parser round trip ----

TEST(RoundTripTest, PrintParsePrintIsStable) {
  const char* source = R"(module rt
global @dying
global @buf [8]

func @die() {
entry:
  store 1, @dying  !libsafe.c:1640
  ret
}

func @check(ptr %src) -> i64 {
entry:
  %d = load @dying  !util.c:145
  %dy = icmp ne %d, 0
  br %dy, bypass, work
bypass:
  ret 0  !util.c:146
work:
  jmp loop
loop:
  %i = phi [0, work], [%n, loop]
  %p = gep %src, %i
  %c = load %p
  %nz = icmp ne %c, 0
  %n = add %i, 1
  br %nz, loop, out
out:
  ret %i
}
)";
  auto m1 = parse_ok(source);
  ASSERT_TRUE(verify_module(*m1).is_ok());
  const std::string printed1 = print_module(*m1);
  auto m2 = parse_ok(printed1);
  const std::string printed2 = print_module(*m2);
  EXPECT_EQ(printed1, printed2);
  EXPECT_EQ(m1->instruction_count(), m2->instruction_count());
}

}  // namespace
}  // namespace owl::ir
