// Checker framework entry point (DESIGN.md §11).
//
// A Checker is a stateless pass over an AnalysisContext that deposits
// findings into a BugReportMgr. CheckerOptions selects which checkers run
// ("off" is the default everywhere: with no checker enabled the pipeline
// skips the stage entirely and every existing output stays byte-identical).
// run_checkers executes the enabled checkers in fixed registry order and
// returns the finalized (sorted, deduplicated) findings, so results are
// deterministic regardless of job count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "checkers/analysis_context.hpp"
#include "checkers/bug_report.hpp"

namespace owl::checkers {

class Checker {
 public:
  virtual ~Checker() = default;

  /// Stable lowercase name, also the CLI selector ("deadlock", ...).
  virtual std::string_view name() const = 0;
  virtual void run(const AnalysisContext& ctx, BugReportMgr& mgr) = 0;
};

struct CheckerOptions {
  bool deadlock = false;
  bool atomicity = false;
  bool lock_mismatch = false;
  bool condvar = false;

  bool any() const noexcept {
    return deadlock || atomicity || lock_mismatch || condvar;
  }

  /// Canonical selector string: "off", or a fixed-order comma list (what
  /// "all" expands to). Feeds the serve cache key — see
  /// core::AnalysisRequest::canonical_blob.
  std::string canonical() const;

  /// Parses "off", "all", or a comma list of checker names. Returns false
  /// (with `error` set) on an unknown name.
  static bool parse(std::string_view text, CheckerOptions& out,
                    std::string& error);
};

/// Instantiates the enabled checkers in fixed order, runs them, finalizes.
std::vector<BugReport> run_checkers(const CheckerOptions& options,
                                    const AnalysisContext& ctx);

}  // namespace owl::checkers
