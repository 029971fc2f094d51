#include "sync/annotator.hpp"

#include <set>

namespace owl::sync {

AnnotationOutcome annotate_adhoc_syncs(
    const ir::Module& module, std::vector<race::RaceReport>& reports) {
  AnnotationOutcome outcome;
  const AdhocSyncDetector detector(module);

  std::set<std::pair<const ir::Instruction*, const ir::Instruction*>> pairs;
  for (race::RaceReport& report : reports) {
    const AdhocSyncResult result = detector.classify(report);
    if (!result.is_adhoc) continue;
    report.adhoc_sync = true;
    ++outcome.adhoc_reports;
    outcome.annotations.add_release_store(result.write);
    outcome.annotations.add_acquire_load(result.read);
    if (pairs.emplace(result.write, result.read).second) {
      ++outcome.unique_adhoc_syncs;
    }
  }
  return outcome;
}

}  // namespace owl::sync
