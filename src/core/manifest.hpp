// Per-run manifests (DESIGN.md §8): one JSON document capturing what a
// pipeline run was asked to do and what came out — inputs, options, seeds,
// per-target StageCounts and failure records, and the behavioral metrics
// snapshot. Everything outside the "environment" object is deterministic
// for a fixed workload (no wall clock, no host facts, no jobs count), so CI
// byte-diffs manifests across jobs values, prescreen modes, and repeat
// runs (scripts/manifest_diff.py strips "environment" and compares).
//
// core::analyze renders one per run (owl_cli --manifest writes it, the
// serve cache seals its body), and bench's run_all_pipelines writes
// per-bench manifests under $OWL_MANIFEST_DIR.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"

namespace owl::core {

/// Target metadata for callers that no longer hold a PipelineTarget
/// (bench sweeps). Parallel to the results vector.
struct ManifestTarget {
  std::string name;
  std::uint64_t seed = 0;
  std::string detector;   ///< "tsan" | "ski" | "atomicity"
  unsigned schedules = 0;
};

/// Free-form key/value lists rendered in input order. `options` lines are
/// part of the diffable body; `environment` lines are stripped by diffs.
using ManifestKv = std::vector<std::pair<std::string, std::string>>;

std::string_view detector_kind_name(DetectorKind kind) noexcept;

/// Low-level renderer: full control over the option/environment echo.
/// Embeds the global MetricsRegistry snapshot (behavioral in the body,
/// wall-clock under "environment").
std::string render_manifest(const std::string& tool, const ManifestKv& options,
                            const std::vector<ManifestTarget>& targets,
                            const std::vector<PipelineResult>& results,
                            const ManifestKv& environment);

/// Convenience renderer used by core::analyze: echoes the PipelineOptions
/// knobs and derives target metadata from the targets.
std::string render_manifest(const std::string& tool,
                            const PipelineOptions& options,
                            const std::vector<PipelineTarget>& targets,
                            const std::vector<PipelineResult>& results);

/// Writes `json` to `path`; false on I/O failure.
bool write_manifest(const std::string& path, const std::string& json);

/// Removes the non-diffable "environment" tail from a rendered manifest —
/// the C++ twin of scripts/manifest_diff.py's strip. The result is the
/// deterministic body the serve layer hashes into cache entries: equal
/// bodies iff the runs were behaviorally identical.
std::string strip_manifest_environment(const std::string& manifest_json);

}  // namespace owl::core
