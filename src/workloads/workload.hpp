// Workload models — the "target programs" of the evaluation.
//
// The paper evaluates OWL on old vulnerable builds of Apache, MySQL, SSDB,
// Chrome, Libsafe and Linux. Those builds are unavailable offline, so each
// workload here is a MiniIR transcription of the studied bug (taken from
// the paper's own code listings) embedded in a realistic multithreaded
// server loop, plus benign-race/adhoc-sync background noise sized to give
// the detector report volumes the same *shape* as the paper's Table 1/3.
// See DESIGN.md §2 for the substitution argument.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "interp/machine.hpp"
#include "ir/module.hpp"

namespace owl::workloads {

/// Scales the synthetic background noise. 1.0 reproduces the paper-shaped
/// ratios at ~1/10 the absolute magnitude (documented in EXPERIMENTS.md);
/// tests use small values for speed.
struct NoiseProfile {
  double scale = 1.0;
};

struct Workload {
  // --- identity (Table 1 / Table 4 columns) ---
  std::string name;          ///< versioned, e.g. "apache-2.0.48"
  std::string program;       ///< study program name, e.g. "Apache"
  std::string description;
  std::string vuln_type;     ///< Table 4 "Vul. Type"
  std::string subtle_inputs; ///< Table 4 "Subtle Inputs"
  std::uint64_t paper_loc = 0;       ///< LoC of the real program (Table 1)
  std::uint64_t paper_raw_reports = 0;  ///< paper's R.R. for comparison

  // --- the modelled program ---
  std::shared_ptr<ir::Module> module;
  const ir::Function* entry = nullptr;  ///< spawns every simulated thread

  // --- inputs ---
  std::vector<interp::Word> testing_inputs;  ///< benchmark-style workload
  std::vector<interp::Word> exploit_inputs;  ///< crafted subtle inputs
  bool authorized_root = false;
  std::uint64_t max_steps = 400'000;

  // --- pipeline wiring ---
  /// kSki marks the kernel model, which runs without the LLDB-based
  /// dynamic verifiers (§8.3).
  core::DetectorKind detector = core::DetectorKind::kTsan;
  unsigned detection_schedules = 4;
  std::vector<interp::ThreadId> thread_order;  ///< verifier ordering hint

  // --- ground truth for the evaluation harness ---
  /// Attacks this workload models (>= 1 except memcached).
  std::size_t known_attacks = 0;
  /// The vulnerable-site instructions the model plants, one per modelled
  /// attack, recorded at the builder call that creates each. They match by
  /// identity, so noise on the same opcode or line never counts.
  std::vector<const ir::Instruction*> attack_sites;
  /// Predicate over a finished machine: did the exploit succeed?
  std::function<bool(const interp::Machine&)> attack_succeeded;

  /// Table 2's "# found": the recorded sites that are the site of some
  /// attack in `result` (reached by the vulnerability verifier). The SKI
  /// kernel model has no dynamic verifiers, so there a site counts once
  /// the static analyzer reports an exploit at it.
  std::size_t count_found(const core::PipelineResult& result) const;

  /// Did OWL detect every modelled attack? False for a model with none.
  bool attack_detected(const core::PipelineResult& result) const {
    return !attack_sites.empty() && count_found(result) == attack_sites.size();
  }

  /// Fresh machine on the given inputs with all simulated threads spawned.
  std::unique_ptr<interp::Machine> make_machine(
      const std::vector<interp::Word>& inputs) const;

  /// Pipeline target (detection on testing inputs, verification on exploit
  /// inputs — the "directed" part of directed detection), built by
  /// core::machine_target.
  core::PipelineTarget target(std::uint64_t seed = 1) const;

  /// Pipeline options appropriate for this workload (kernel => no dynamic
  /// verifiers, matching the paper's Linux setup).
  core::PipelineOptions pipeline_options() const;
};

}  // namespace owl::workloads
