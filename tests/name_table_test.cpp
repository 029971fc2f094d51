// ir::NameTable against the printer it caches for: quoting an instruction
// through one shared table must give exactly the line print_function
// emits for it and exactly a one-shot print_instruction, on every function
// of the shipped examples and the nine paper models, plus the two
// fallbacks a shared table could get wrong (an operand of another function,
// a detached instruction).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/analyze.hpp"
#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/strings.hpp"
#include "workloads/registry.hpp"

namespace owl::ir {
namespace {

/// Quotes every instruction of `module` through one table, function after
/// function, and checks each against print_function's line and a one-shot
/// print_instruction. Returns the number of instructions checked.
std::size_t expect_table_matches_printer(const Module& module,
                                         const std::string& where) {
  NameTable names;
  std::size_t checked = 0;
  for (const auto& f : module.functions()) {
    const std::vector<std::string> lines = split(print_function(*f), '\n');
    std::size_t line = 1;  // past the "func @f(...) {" header
    for (const auto& bb : f->blocks()) {
      ++line;  // the block label
      for (const auto& instr : bb->instructions()) {
        const std::string context = where + " @" + f->name() + " line " +
                                    std::to_string(line);
        if (line >= lines.size()) {
          ADD_FAILURE() << context << ": past print_function's last line";
          return checked;
        }
        const std::string quoted = names.instruction(*instr);
        EXPECT_EQ(quoted, std::string(trim(lines[line]))) << context;
        EXPECT_EQ(quoted, print_instruction(*instr)) << context;
        ++line;
        ++checked;
      }
    }
  }
  return checked;
}

TEST(NameTableTest, MatchesPrinterOnExamples) {
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(OWL_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".mir") examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  ASSERT_GE(examples.size(), 16u);
  for (const auto& path : examples) {
    std::string text;
    std::string error;
    ASSERT_TRUE(core::read_module_file(path.string(), text, error)) << error;
    auto parsed = parse_module(text);
    ASSERT_TRUE(parsed.is_ok()) << path << ": " << parsed.status().to_string();
    EXPECT_GT(expect_table_matches_printer(*parsed.value(),
                                           path.filename().string()),
              0u);
  }
}

TEST(NameTableTest, MatchesPrinterOnPaperModels) {
  const std::vector<workloads::Workload> models = workloads::make_all({1.0});
  ASSERT_EQ(models.size(), 9u);
  for (const workloads::Workload& w : models) {
    EXPECT_GT(expect_table_matches_printer(*w.module, w.name), 0u);
  }
}

TEST(NameTableTest, OperandOfAnotherFunctionFallsBackToItsNameOrId) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("g");
  Function* f = m.add_function("f", Type::void_type());
  b.set_insert_point(f->add_block("entry"));
  Instruction* x = b.load(g, "x");
  Instruction* sum = b.add(x, b.i64(1));  // %t0 inside @f
  b.ret();
  Function* h = m.add_function("h", Type::void_type());
  b.set_insert_point(h->add_block("entry"));
  Instruction* use_named = b.store(x, g);
  Instruction* use_unnamed = b.add(sum, b.i64(2));  // %t0 inside @h
  b.ret();

  NameTable names;
  // Naming @f first must not leak its %t0 into @h's operands.
  EXPECT_EQ(names.instruction(*sum), "%t0 = add %x, 1");
  EXPECT_EQ(names.instruction(*use_named), "store %x, @g");
  const std::string expected =
      "%t0 = add %v" + std::to_string(sum->id()) + ", 2";
  EXPECT_EQ(names.instruction(*use_unnamed), expected);
  EXPECT_EQ(print_instruction(*use_unnamed), expected);
}

TEST(NameTableTest, DetachedInstructionGetsNoFunctionNames) {
  Module m("t");
  IRBuilder b(&m);
  GlobalVariable* g = m.add_global("g");
  Function* f = m.add_function("f", Type::void_type());
  BasicBlock* entry = f->add_block("entry");
  b.set_insert_point(entry);
  Instruction* loaded = b.load(g);             // %t0
  Instruction* sum = b.add(loaded, b.i64(1));  // %t1 while attached
  b.ret();

  NameTable names;
  EXPECT_EQ(names.instruction(*sum), "%t1 = add %t0, 1");
  const std::unique_ptr<Instruction> detached = entry->remove(1);
  ASSERT_EQ(detached.get(), sum);
  const std::string expected = "%v" + std::to_string(sum->id()) +
                               " = add %v" + std::to_string(loaded->id()) +
                               ", 1";
  EXPECT_EQ(names.instruction(*detached), expected);
  EXPECT_EQ(print_instruction(*detached), expected);
}

}  // namespace
}  // namespace owl::ir
