// Benign-race background noise.
//
// Race detectors bury vulnerable races under thousands of benign reports
// (Table 1: 28,209 reports across the study; Table 3: 94.3% pruned). Each
// noise class below is engineered to be pruned by the same pipeline stage
// that prunes its real-world counterpart:
//
//  - `adhoc_groups`   — busy-wait flag synchronizations guarding blocks of
//                       shared data: classified by §5.1, annotated, and all
//                       of their reports disappear on the re-run (the A.S.
//                       column; Linux's 24k→1.7k collapse works this way);
//  - `publication_depth` — a one-shot initialization chain publishing data
//                       through racy gate flags written in reverse order:
//                       every report except the outermost gate cannot be
//                       re-caught "in the racing moment" and is eliminated
//                       by the §5.2 race verifier (the R.V.E. column;
//                       Memcached's 5376→4 collapse works this way);
//  - `counters`       — unsynchronized statistics counters: genuine, benign,
//                       reproducible races that survive verification and
//                       populate the R. column;
//  - `safe_site_groups` — counter races whose value flows into a *bounded*
//                       memcpy: Algorithm 1 flags them (they reach a
//                       memory-operation site) but no attack is realizable;
//                       they populate OWL's residual reports in Table 2.
#pragma once

#include <string>
#include <vector>

#include "ir/module.hpp"

namespace owl::workloads {

struct NoiseSpec {
  unsigned counters = 0;
  unsigned publication_depth = 0;
  unsigned adhoc_groups = 0;
  unsigned adhoc_guarded = 8;  ///< shared cells ordered by each adhoc sync
  unsigned safe_site_groups = 0;
  std::string tag = "noise";   ///< symbol prefix and fake source file name
};

/// Adds the noise structures to `module`; returns thread-entry functions
/// the workload's main must spawn (all take zero or one ignored argument).
std::vector<ir::Function*> add_noise(ir::Module& module,
                                     const NoiseSpec& spec);

}  // namespace owl::workloads
