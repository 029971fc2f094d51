#include "workloads/workload.hpp"

namespace owl::workloads {

namespace {

/// Fresh machines from `image` (of `w.module`) on `inputs`, with all
/// simulated threads spawned.
interp::MachineFactory machine_factory(
    const Workload& w, std::shared_ptr<const interp::MachineImage> image,
    const std::vector<interp::Word>& inputs) {
  interp::MachineOptions options;
  options.inputs = inputs;
  options.max_steps = w.max_steps;
  options.authorized_root = w.authorized_root;
  return interp::machine_factory(w.module, std::move(image), w.entry,
                                 std::move(options));
}

}  // namespace

std::unique_ptr<interp::Machine> Workload::make_machine(
    const std::vector<interp::Word>& inputs) const {
  return machine_factory(
      *this, std::make_shared<const interp::MachineImage>(*module), inputs)();
}

core::PipelineTarget Workload::target(std::uint64_t seed) const {
  const auto image = std::make_shared<const interp::MachineImage>(*module);
  core::PipelineTarget t;
  t.name = name;
  t.module = module.get();
  t.factory = machine_factory(*this, image, testing_inputs);
  t.exploit_factory = machine_factory(*this, image, exploit_inputs);
  t.thread_order = thread_order;
  t.detector = detector;
  t.detection_schedules = detection_schedules;
  t.seed = seed;
  return t;
}

core::PipelineOptions Workload::pipeline_options() const {
  core::PipelineOptions options;
  if (!dynamic_verifiers_supported) {
    // The paper could not run its LLDB-based verifiers on kernels (§8.3);
    // the same applies to our SKI-mode kernel targets for fidelity.
    options.enable_race_verifier = false;
    options.enable_vuln_verifier = false;
  }
  return options;
}

}  // namespace owl::workloads
