#include "checkers/analysis_context.hpp"

namespace owl::checkers {

AnalysisContext::AnalysisContext(const ir::Module& module_in,
                                 const analysis::ModuleStatic& statics_in,
                                 interp::MachineFactory machine_factory_in)
    : module(module_in),
      statics(statics_in),
      mhp(module_in, statics_in.resolved_calls),
      machine_factory(std::move(machine_factory_in)) {}

std::string AnalysisContext::object_name(
    analysis::PointsTo::ObjectId id) const {
  const auto& objects = statics.points_to.objects();
  if (id >= objects.size()) return "";
  return objects[id].site->name();
}

}  // namespace owl::checkers
