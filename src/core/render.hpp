// The canonical CLI text rendering of pipeline results.
//
// Extracted from owl_cli so the serve layer (src/serve/executor.cpp) emits
// *the same bytes* for the same analysis: owl_serve's differential gate
// ("daemon responses byte-identical to one-shot owl_cli") holds by
// construction because both front ends call these renderers, not because
// two printf chains happen to agree. The "owl_cli: " prefixes are part of
// the canonical format and are kept verbatim regardless of which tool
// renders — changing them changes the service's response bytes and every
// golden output downstream.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace owl::core {

/// The always-printed per-target summary block:
///   owl_cli: <name>
///     raw race reports: ... (through resilience + failure records)
std::string render_cli_summary(const PipelineResult& result);

/// The detail sections that follow the summaries (suppressed entirely by
/// --quiet): verified races when `print_reports`, vulnerable input hints,
/// and attacks. Empty string when there is nothing to show.
std::string render_cli_details(const PipelineResult& result,
                               bool print_reports);

/// One SARIF 2.1.0 log covering every result's checker findings, in input
/// order (`--sarif-out`).
std::string render_sarif(const std::vector<PipelineResult>& results);

}  // namespace owl::core
