// Tests for core::analyze (core/analyze.hpp), the run path owl_cli and
// owl_served share: the load-failure exit contract across several modules
// and the exit-3 decision for each audit kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/analyze.hpp"

namespace owl::core {
namespace {

constexpr const char* kRace = R"(module race
global @x [1] = 0

func @w() {
entry:
  store 1, @x
  ret
}

func @main() {
entry:
  %a = thread_create @w, 0
  %b = thread_create @w, 0
  thread_join %a
  thread_join %b
  ret
}
)";

TEST(AnalyzeTest, FirstLoadFailureEndsTheRun) {
  AnalysisRequest request;
  request.print_module = true;
  const AnalysisOutcome outcome =
      analyze({{"good.mir", kRace},
               {"bad.mir", "module bad\nfunc @main() {\nentry:\n  ret 1 2\n"},
               {"missing.mir", std::nullopt}},
              request);
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_FALSE(outcome.ran_pipeline);
  EXPECT_TRUE(outcome.results.empty());
  EXPECT_TRUE(outcome.manifest.empty());
  // The module loaded before the failure was already echoed, as owl_cli
  // prints it while loading; the error names the failing module only.
  EXPECT_NE(outcome.output.find("module race"), std::string::npos);
  EXPECT_EQ(outcome.error.rfind("owl_cli: bad.mir: parse-error: ", 0), 0u)
      << outcome.error;

  const AnalysisOutcome unreadable =
      analyze({{"/nonexistent/owl/missing.mir", std::nullopt}}, request);
  EXPECT_EQ(unreadable.exit_code, 1);
  EXPECT_EQ(unreadable.error,
            "owl_cli: cannot open /nonexistent/owl/missing.mir\n");
}

TEST(AnalyzeTest, RunsEveryModuleAndRendersInInputOrder) {
  AnalysisRequest request;
  request.quiet = true;
  request.jobs = 2;
  const AnalysisOutcome outcome =
      analyze({{"a.mir", kRace}, {"b.mir", kRace}}, request);
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_TRUE(outcome.ran_pipeline);
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_EQ(outcome.modules.size(), 2u);
  EXPECT_LT(outcome.output.find("owl_cli: a.mir\n"),
            outcome.output.find("owl_cli: b.mir\n"));
  EXPECT_NE(outcome.manifest.find("\"tool\":\"owl_cli\""), std::string::npos);
  EXPECT_TRUE(outcome.error.empty());
}

TEST(AnalyzeTest, EachAuditKindMapsToItsOwnMessage) {
  std::vector<PipelineResult> results(2);
  std::string error;
  EXPECT_EQ(audit_exit_code(results, error), 0);
  EXPECT_TRUE(error.empty());

  // Violations sum over targets, one stderr line per kind.
  results[0].audit.prescreen = 1;
  results[1].audit.prescreen = 2;
  EXPECT_EQ(audit_exit_code(results, error), 3);
  EXPECT_EQ(error,
            "owl_cli: prescreen audit: 3 pruned-but-raced access(es) falsify "
            "the static no-race verdict\n");

  results = std::vector<PipelineResult>(1);
  results[0].audit.predict = 4;
  error.clear();
  EXPECT_EQ(audit_exit_code(results, error), 3);
  EXPECT_EQ(error,
            "owl_cli: predict audit: 4 verified race(s) the SP-closure "
            "wrongly called infeasible\n");

  results[0].audit.predict = 0;
  results[0].audit.vuln_flow = 5;
  error.clear();
  EXPECT_EQ(audit_exit_code(results, error), 3);
  EXPECT_EQ(error,
            "owl_cli: vuln-flow audit: 5 runtime store->load dependence(s) "
            "missing from the static value-flow graph\n");

  // All three at once: prescreen, predict, vuln-flow order.
  results[0].audit = AuditCounts{1, 1, 1};
  error.clear();
  EXPECT_EQ(audit_exit_code(results, error), 3);
  EXPECT_EQ(error.rfind("owl_cli: prescreen audit: 1 ", 0), 0u) << error;
  EXPECT_EQ(std::count(error.begin(), error.end(), '\n'), 3);
  EXPECT_LT(error.find("prescreen audit"), error.find("predict audit"));
  EXPECT_LT(error.find("predict audit"), error.find("vuln-flow audit"));
}

}  // namespace
}  // namespace owl::core
