#include "workloads/workload.hpp"

#include <algorithm>

namespace owl::workloads {

std::size_t Workload::count_found(const core::PipelineResult& result) const {
  const auto reported = [&](const ir::Instruction* site) {
    if (detector == core::DetectorKind::kSki) {
      return std::ranges::find(result.exploits, site,
                               &vuln::ExploitReport::site) !=
             result.exploits.end();
    }
    return std::ranges::find(result.attacks, site,
                             [](const core::ConcurrencyAttack& attack) {
                               return attack.exploit.site;
                             }) != result.attacks.end();
  };
  return static_cast<std::size_t>(
      std::ranges::count_if(attack_sites, reported));
}

std::unique_ptr<interp::Machine> Workload::make_machine(
    const std::vector<interp::Word>& inputs) const {
  auto machine = std::make_unique<interp::Machine>(
      *module, interp::MachineOptions{inputs, max_steps, authorized_root});
  machine->start(entry);
  return machine;
}

core::PipelineTarget Workload::target(std::uint64_t seed) const {
  core::PipelineTarget t = core::machine_target(
      name, module, entry, {testing_inputs, max_steps, authorized_root},
      {exploit_inputs, max_steps, authorized_root});
  t.thread_order = thread_order;
  t.detector = detector;
  t.detection_schedules = detection_schedules;
  t.seed = seed;
  return t;
}

core::PipelineOptions Workload::pipeline_options() const {
  core::PipelineOptions options;
  if (detector == core::DetectorKind::kSki) {
    // The paper could not run its LLDB-based verifiers on kernels (§8.3);
    // the same applies to our SKI-mode kernel targets for fidelity.
    options.enable_race_verifier = false;
    options.enable_vuln_verifier = false;
  }
  return options;
}

}  // namespace owl::workloads
