// Unit tests for Algorithm 1 — the static vulnerability analyzer (§6.1).
#include <gtest/gtest.h>

#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "vuln/analyzer.hpp"
#include "vuln/hint.hpp"

namespace owl::vuln {
namespace {

std::unique_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  auto m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

/// Finds the first instruction with the given opcode in a function.
const ir::Instruction* find_instr(const ir::Function* f, ir::Opcode op) {
  for (const auto& bb : f->blocks()) {
    for (const auto& instr : bb->instructions()) {
      if (instr->opcode() == op) return instr.get();
    }
  }
  return nullptr;
}

/// Builds a single-frame call stack for a corrupted read.
interp::CallStack stack_of(const ir::Instruction* read) {
  return {{read->function(), read}};
}

bool has_site(const VulnAnalysis& analysis, ir::Opcode op, DepKind dep) {
  for (const ExploitReport& e : analysis.exploits) {
    if (e.site != nullptr && e.site->opcode() == op && e.dep == dep) {
      return true;
    }
  }
  return false;
}

TEST(AnalyzerTest, DataFlowToMemcpyLength) {
  auto m = parse_ok(R"(module d
global @cnt
global @buf [8]
global @src [8]
func @f() {
entry:
  %v = load @cnt
  %len = add %v, 1
  memcpy @buf, @src, %len
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  ASSERT_EQ(analysis.exploits.size(), 1u);
  const ExploitReport& e = analysis.exploits.front();
  EXPECT_EQ(e.type, SiteType::kMemoryOp);
  EXPECT_EQ(e.dep, DepKind::kData);
  EXPECT_EQ(e.site->opcode(), ir::Opcode::kMemCopy);
  // The propagation chain walks back to the corrupted read.
  ASSERT_GE(e.propagation.size(), 1u);
}

TEST(AnalyzerTest, ControlDependentSite) {
  auto m = parse_ok(R"(module c
global @flag
func @f() {
entry:
  %v = load @flag
  %c = icmp ne %v, 0
  br %c, bad, good
bad:
  setuid 0
  ret
good:
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  ASSERT_EQ(analysis.exploits.size(), 1u);
  const ExploitReport& e = analysis.exploits.front();
  EXPECT_EQ(e.type, SiteType::kPrivilegeOp);
  EXPECT_EQ(e.dep, DepKind::kControl);
  // The corrupted branch is part of the input hint.
  ASSERT_EQ(e.branches.size(), 1u);
  EXPECT_EQ(e.branches.front()->opcode(), ir::Opcode::kBr);
}

TEST(AnalyzerTest, NoSiteMeansNoReports) {
  auto m = parse_ok(R"(module n
global @x
global @y
func @f() {
entry:
  %v = load @x
  %w = add %v, 1
  store %w, @y
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  EXPECT_TRUE(analysis.exploits.empty());
}

TEST(AnalyzerTest, DescendsIntoCalleeWithCorruptedArgument) {
  auto m = parse_ok(R"(module dc
global @cnt
global @buf [4]
global @src [4]
func @copy_n(i64 %n) {
entry:
  memcpy @buf, @src, %n
  ret
}
func @f() {
entry:
  %v = load @cnt
  call @copy_n(%v)
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  EXPECT_TRUE(has_site(analysis, ir::Opcode::kMemCopy, DepKind::kData));
  EXPECT_GE(analysis.stats.functions_visited, 2u);
}

TEST(AnalyzerTest, DoesNotDescendWithoutCorruptionOrControl) {
  auto m = parse_ok(R"(module nd
global @cnt
func @danger() {
entry:
  setuid 0
  ret
}
func @f() {
entry:
  %v = load @cnt
  call @danger()
  ret
}
)");
  // The call is unconditional and takes no corrupted data: the setuid in
  // the callee is NOT attributable to the race.
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  EXPECT_TRUE(analysis.exploits.empty());
}

TEST(AnalyzerTest, DescendsIntoCalleeUnderCorruptedControl) {
  // The SSDB shape: a call guarded by the corrupted branch; the site is
  // inside the callee.
  auto m = parse_ok(R"(module sc
global @db
func @del_range() {
entry:
  %d = load @db
  %vt = load %d
  %r = callptr %vt()
  ret
}
func @f() {
entry:
  %v = load @db
  %gone = icmp eq %v, 0
  br %gone, out, work
work:
  call @del_range()
  ret
out:
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  EXPECT_TRUE(has_site(analysis, ir::Opcode::kCallPtr, DepKind::kControl));
}

TEST(AnalyzerTest, PointerDerefThroughCorruptedPointer) {
  auto m = parse_ok(R"(module pd
global @p
func @f() {
entry:
  %ptr = load @p
  %v = load %ptr
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = f->entry()->front();
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  EXPECT_TRUE(has_site(analysis, ir::Opcode::kLoad, DepKind::kData));
  ASSERT_FALSE(analysis.exploits.empty());
  EXPECT_EQ(analysis.exploits.front().type, SiteType::kNullPtrDeref);
}

TEST(AnalyzerTest, IndirectCallThroughCorruptedValue) {
  auto m = parse_ok(R"(module ic
global @fp
func @f() {
entry:
  %v = load @fp
  %r = callptr %v()
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = f->entry()->front();
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  EXPECT_TRUE(has_site(analysis, ir::Opcode::kCallPtr, DepKind::kData));
}

TEST(AnalyzerTest, ReturnValuePropagatesUpCallStack) {
  // The Libsafe shape: the corrupted read is in a callee; the branch on the
  // callee's return value guards the vulnerable strcpy in the caller.
  auto m = parse_ok(R"(module rv
global @dying
global @buf [4]
global @src [4]
func @check() -> i64 {
entry:
  %d = load @dying
  %c = icmp ne %d, 0
  br %c, bypass, work
bypass:
  ret 0
work:
  ret 1
}
func @caller() {
entry:
  %r = call @check()
  %ok = icmp eq %r, 0
  br %ok, copy, skip
copy:
  strcpy @buf, @src
  ret
skip:
  ret
}
)");
  const ir::Function* check = m->find_function("check");
  const ir::Function* caller = m->find_function("caller");
  const ir::Instruction* read = find_instr(check, ir::Opcode::kLoad);
  const ir::Instruction* call_site = find_instr(caller, ir::Opcode::kCall);

  // Runtime stack: caller (at the call site) -> check (at the read).
  const interp::CallStack stack{{caller, call_site}, {check, read}};
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack);
  ASSERT_TRUE(has_site(analysis, ir::Opcode::kStrCpy, DepKind::kControl));
  // The branch hint points at the caller's check at the call-return seam.
  for (const ExploitReport& e : analysis.exploits) {
    if (e.site->opcode() == ir::Opcode::kStrCpy) {
      ASSERT_FALSE(e.branches.empty());
      EXPECT_EQ(e.branches.back()->function(), caller);
    }
  }
}

TEST(AnalyzerTest, TransitiveControlDependence) {
  auto m = parse_ok(R"(module tc
global @flag
global @n
func @f() {
entry:
  %v = load @flag
  %c = icmp ne %v, 0
  br %c, outer, out
outer:
  %k = load @n
  %c2 = icmp sgt %k, 0
  br %c2, inner, out
inner:
  eval 7
  ret
out:
  ret
}
)");
  // The eval is guarded by an uncorrupted branch, which itself is guarded
  // by the corrupted one: still reported (transitive control corruption).
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = f->entry()->front();
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  EXPECT_TRUE(has_site(analysis, ir::Opcode::kEval, DepKind::kControl));
}

TEST(AnalyzerTest, SiteReportedOncePerDependenceKind) {
  auto m = parse_ok(R"(module dd
global @cnt
global @buf [4]
global @src [4]
func @f() {
entry:
  jmp loop
loop:
  %v = load @cnt
  %c = icmp sgt %v, 0
  br %c, body, out
body:
  memcpy @buf, @src, %v
  jmp loop
out:
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  // The memcpy is both data- (length) and control- (loop guard) dependent:
  // exactly one report of each kind despite the fixpoint iterating.
  std::size_t data = 0;
  std::size_t ctrl = 0;
  for (const ExploitReport& e : analysis.exploits) {
    if (e.site->opcode() != ir::Opcode::kMemCopy) continue;
    if (e.dep == DepKind::kData) ++data;
    if (e.dep == DepKind::kControl) ++ctrl;
  }
  EXPECT_EQ(data, 1u);
  EXPECT_EQ(ctrl, 1u);
}

TEST(AnalyzerTest, AnalyzeFromRaceReportUsesReadSide) {
  auto m = parse_ok(R"(module rr
global @x
func @f() {
entry:
  %v = load @x
  %c = icmp ne %v, 0
  br %c, bad, out
bad:
  %pid = fork
  ret
out:
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);

  race::RaceReport report;
  report.first.instr = read;
  report.first.is_write = false;
  report.first.stack = stack_of(read);
  report.second.is_write = true;

  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze(report);
  EXPECT_TRUE(has_site(analysis, ir::Opcode::kFork, DepKind::kControl));

  race::RaceReport empty;  // no read side at all
  EXPECT_TRUE(analyzer.analyze(empty).exploits.empty());
}

TEST(AnalyzerTest, WholeProgramModeWalksAllCallers) {
  auto m = parse_ok(R"(module wp
global @x
global @buf [4]
global @src [4]
func @leaf() -> i64 {
entry:
  %v = load @x
  ret %v
}
func @copycaller() {
entry:
  %n = call @leaf()
  memcpy @buf, @src, %n
  ret
}
func @quietcaller() {
entry:
  %n = call @leaf()
  ret
}
)");
  const ir::Function* leaf = m->find_function("leaf");
  const ir::Instruction* read = find_instr(leaf, ir::Opcode::kLoad);

  // Directed mode with a single-frame stack: no caller context, no site.
  const VulnerabilityAnalyzer directed(*m);
  EXPECT_TRUE(directed.analyze_from(read, stack_of(read)).exploits.empty());

  // Whole-program ablation conservatively explores every caller and flags
  // the memcpy — precision traded for not needing the runtime stack.
  VulnerabilityAnalyzer::Options options;
  options.mode = VulnerabilityAnalyzer::Mode::kWholeProgram;
  const VulnerabilityAnalyzer whole(*m, options);
  const VulnAnalysis analysis = whole.analyze_from(read, stack_of(read));
  EXPECT_TRUE(has_site(analysis, ir::Opcode::kMemCopy, DepKind::kData));
}

TEST(AnalyzerTest, RecursionTerminates) {
  auto m = parse_ok(R"(module rec
global @x
func @spin(i64 %n) {
entry:
  call @spin(%n)
  ret
}
func @f() {
entry:
  %v = load @x
  call @spin(%v)
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  // No crash / no runaway; nothing vulnerable either.
  EXPECT_TRUE(analysis.exploits.empty());
  EXPECT_LT(analysis.stats.instructions_visited, 10000u);
}

TEST(HintTest, RenderingNamesBranchAndSite) {
  auto m = parse_ok(R"(module hr
global @flag
global @buf [4]
global @src [4]
func @f() {
entry:
  %v = load @flag  !util.c:145
  %c = icmp ne %v, 0  !util.c:145
  br %c, bad, out  !util.c:145
bad:
  strcpy @buf, @src  !intercept.c:165
  ret
out:
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  ASSERT_EQ(analysis.exploits.size(), 1u);
  ir::NameTable names;
  const std::string hint = render_hint(analysis.exploits.front(), names);
  EXPECT_NE(hint.find("Ctrl Dependent Vulnerability"), std::string::npos);
  EXPECT_NE(hint.find("util.c:145"), std::string::npos);
  EXPECT_NE(hint.find("intercept.c:165"), std::string::npos);
  EXPECT_NE(hint.find("memory-operation"), std::string::npos);
}

TEST(AnalyzerTest, TaintFlowsThroughPhis) {
  // Loop-carried corruption: the racy read feeds a phi; the accumulated
  // value reaches a memcpy length after the loop.
  auto m = parse_ok(R"(module ph
global @cnt
global @buf [8]
global @src [8]
func @f() {
entry:
  %v = load @cnt
  jmp loop
loop:
  %acc = phi [%v, entry], [%acc2, loop]
  %acc2 = add %acc, 1
  %c = icmp slt %acc2, 100
  br %c, loop, out
out:
  memcpy @buf, @src, %acc
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  EXPECT_TRUE(has_site(analysis, ir::Opcode::kMemCopy, DepKind::kData));
}

TEST(AnalyzerTest, BranchHintsAreOrderedRootFirst) {
  auto m = parse_ok(R"(module bh
global @x
func @f() {
entry:
  %v = load @x
  %c1 = icmp ne %v, 0
  br %c1, mid, out
mid:
  %w = add %v, 1
  %c2 = icmp sgt %w, 5
  br %c2, deep, out
deep:
  fork
  ret
out:
  ret
}
)");
  const ir::Function* f = m->find_function("f");
  const ir::Instruction* read = find_instr(f, ir::Opcode::kLoad);
  const VulnerabilityAnalyzer analyzer(*m);
  const VulnAnalysis analysis = analyzer.analyze_from(read, stack_of(read));
  const ExploitReport* fork_report = nullptr;
  for (const ExploitReport& e : analysis.exploits) {
    if (e.site->opcode() == ir::Opcode::kFork) fork_report = &e;
  }
  ASSERT_NE(fork_report, nullptr);
  // Both guarding branches appear, root (closest to the read) first.
  ASSERT_GE(fork_report->branches.size(), 2u);
  EXPECT_EQ(fork_report->branches.front()->parent()->label(), "entry");
  EXPECT_EQ(fork_report->branches.back()->parent()->label(), "mid");
  // The propagation chain starts at the corrupted read.
  ASSERT_FALSE(fork_report->propagation.empty());
  EXPECT_EQ(fork_report->propagation.front(), read);
}

}  // namespace
}  // namespace owl::vuln
