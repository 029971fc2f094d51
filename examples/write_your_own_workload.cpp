// Authoring your own analysis target from textual MiniIR.
//
// Most users won't hand-construct IR with the builder; they'll sketch the
// suspicious concurrency structure of their system in the textual format
// (the role .ll files play for LLVM), parse it, and let OWL do the rest.
// This example audits a TOCTOU-flavoured file-service: a permission flag is
// revoked concurrently with a request that already passed its access()
// check.
#include <cstdio>

#include "core/pipeline.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "vuln/hint.hpp"

using namespace owl;

// The suspicious subsystem, transcribed from (imaginary) C sources. Note
// the locations — OWL's reports will point back at them.
static const char* kTarget = R"(module fileserv
global @perm [1] = 1

func @serve_request() {
entry:
  %p = load @perm                 !serve.c:31
  %ok = icmp ne %p, 0             !serve.c:31
  br %ok, do_serve, deny          !serve.c:32
do_serve:
  %chk = file_access 7            !serve.c:34
  io_delay 12                     !serve.c:35   ; read the file from disk
  %fd = file_open 7               !serve.c:36
  file_write %fd, @perm, 1        !serve.c:37
  ret
deny:
  ret
}

func @revoke() {
entry:
  io_delay 6                      !admin.c:90
  store 0, @perm                  !admin.c:91   ; admin revokes access
  ret
}

func @main() {
entry:
  %t1 = thread_create @serve_request, 0
  %t2 = thread_create @revoke, 0
  thread_join %t1
  thread_join %t2
  ret
}
)";

int main() {
  // ---- parse + verify ----
  auto parsed = ir::parse_module(kTarget);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().to_string().c_str());
    return 1;
  }
  std::shared_ptr<ir::Module> module = std::move(parsed).value();
  if (const Status status = ir::verify_module(*module); !status.is_ok()) {
    std::fprintf(stderr, "verify error: %s\n", status.to_string().c_str());
    return 1;
  }

  // ---- wire up the pipeline target ----
  core::PipelineTarget target;
  target.name = "fileserv";
  target.module = module.get();
  target.factory = [module] {
    auto machine =
        std::make_unique<interp::Machine>(*module, interp::MachineOptions{});
    machine->start(module->find_function("main"));
    return machine;
  };
  target.detection_schedules = 6;

  const core::PipelineResult result = core::Pipeline().run(target);
  ir::NameTable names;

  std::printf("raw reports: %zu, verified: %zu, hints: %zu\n\n",
              result.counts.raw_reports, result.counts.remaining,
              result.counts.vulnerability_reports);
  for (const vuln::ExploitReport& exploit : result.exploits) {
    std::fputs(vuln::render_hint(exploit, names).c_str(), stdout);
  }
  std::printf("\n--- dynamic verification ---\n");
  for (const core::ConcurrencyAttack& attack : result.attacks) {
    std::fputs(attack.to_string(names).c_str(), stdout);
  }

  // What to look for: the file operations at serve.c:34/36/37 are
  // control-dependent on the corrupted permission check at serve.c:31-32 —
  // the race lets a request keep serving after revocation.
  bool file_site = false;
  for (const vuln::ExploitReport& exploit : result.exploits) {
    file_site |= exploit.type == vuln::SiteType::kFileOp;
  }
  std::printf("\nfile-operation site flagged: %s\n",
              file_site ? "yes" : "no");
  return file_site ? 0 : 1;
}
