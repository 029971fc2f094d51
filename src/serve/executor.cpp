#include "serve/executor.hpp"

#include "core/manifest.hpp"
#include "support/metrics.hpp"

namespace owl::serve {

ExecResult Executor::run(const std::string& module_text,
                         const std::string& display_name,
                         const AnalysisOptions& options) {
  // Fresh-process equivalence: empty the registry so this request's
  // metrics snapshot holds only the names it registered itself.
  support::metrics().reset();
  ExecResult result = core::analyze({{display_name, module_text}}, options,
                                    pipeline_faults_);
  if (result.ran_pipeline) {
    result.manifest = core::strip_manifest_environment(result.manifest);
  }
  return result;
}

}  // namespace owl::serve
