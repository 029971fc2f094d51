// Unit tests for the dynamic race verifier (§5.2) and dynamic vulnerability
// verifier (§6.2).
#include <gtest/gtest.h>

#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "race/tsan_detector.hpp"
#include "verify/race_verifier.hpp"
#include "verify/vuln_verifier.hpp"
#include "vuln/analyzer.hpp"

namespace owl::verify {
namespace {

std::unique_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  auto m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

interp::MachineFactory factory_for(const ir::Module& m,
                                 std::vector<interp::Word> inputs = {}) {
  return [&m, inputs] {
    interp::MachineOptions options;
    options.inputs = inputs;
    auto machine = std::make_unique<interp::Machine>(m, options);
    machine->start(m.find_function("main"));
    return machine;
  };
}

std::vector<race::RaceReport> detect(const ir::Module& m,
                                     std::vector<interp::Word> inputs = {}) {
  auto machine = factory_for(m, std::move(inputs))();
  race::TsanDetector detector;
  machine->add_observer(&detector);
  interp::RandomScheduler sched(1);
  machine->run(sched);
  return detector.take_reports();
}

const char* kSteadyRace = R"(module sr
global @x
func @writer() {
entry:
  store 7, @x
  ret
}
func @reader() {
entry:
  %v = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @reader, 0
  thread_join %a
  thread_join %b
  ret
}
)";

TEST(RaceVerifierTest, VerifiesSteadyRaceInTheRacingMoment) {
  auto m = parse_ok(kSteadyRace);
  auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);

  const RaceVerifier verifier;
  const RaceVerifyResult result =
      verifier.verify(reports.front(), factory_for(*m));
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(reports.front().verified);
  // §5.2 hints: about to read the initial 0, about to write 7.
  const std::string& hint = reports.front().security_hint;
  EXPECT_NE(hint.find("about to read 0, about to write 7"),
            std::string::npos)
      << hint;
  EXPECT_EQ(hint.find("NULL write"), std::string::npos) << hint;
}

TEST(RaceVerifierTest, NullWriteHintFlagsPotentialNullDeref) {
  auto m = parse_ok(R"(module nw
global @p [1] = 5000
func @nuller() {
entry:
  store null, @p
  ret
}
func @user() {
entry:
  %v = load @p
  ret
}
func @main() {
entry:
  %a = thread_create @nuller, 0
  %b = thread_create @user, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);
  const RaceVerifier verifier;
  const RaceVerifyResult result =
      verifier.verify(reports.front(), factory_for(*m));
  ASSERT_TRUE(result.verified);
  EXPECT_NE(reports.front().security_hint.find("NULL write"),
            std::string::npos)
      << reports.front().security_hint;
}

TEST(RaceVerifierTest, VerifiesRaceOnBulkCopySource) {
  // The copy's side of this race is its read of @src, so both parked
  // threads are about to touch @src, not the copy's destination.
  auto m = parse_ok(R"(module bulk
global @src [2]
global @dst [2]
func @copier() {
entry:
  memcpy @dst, @src, 2
  ret
}
func @writer() {
entry:
  store 7, @src
  ret
}
func @main() {
entry:
  %a = thread_create @copier, 0
  %b = thread_create @writer, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);
  const RaceVerifier verifier;
  EXPECT_TRUE(verifier.verify(reports.front(), factory_for(*m)).verified);
  EXPECT_NE(reports.front().security_hint.find("verified on src"),
            std::string::npos)
      << reports.front().security_hint;
}

TEST(RaceVerifierTest, PublicationRaceCannotBeRecaught) {
  // The R.V.E. mechanism: the reader only touches @data behind a gate the
  // parked writer never opens, so the race cannot be caught in the racing
  // moment and the report is eliminated.
  auto m = parse_ok(R"(module pub
global @data
global @gate
func @writer() {
entry:
  store 42, @data
  store 1, @gate
  ret
}
func @reader() {
entry:
  io_delay 200
  %g = load @gate
  %open = icmp eq %g, 1
  br %open, go, out
go:
  %v = load @data
  ret
out:
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @reader, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 2u);  // data pair + gate pair
  const RaceVerifier verifier;
  race::RaceReport* data_report = nullptr;
  race::RaceReport* gate_report = nullptr;
  for (race::RaceReport& r : reports) {
    if (r.object_name == "data") data_report = &r;
    if (r.object_name == "gate") gate_report = &r;
  }
  ASSERT_NE(data_report, nullptr);
  ASSERT_NE(gate_report, nullptr);

  EXPECT_FALSE(verifier.verify(*data_report, factory_for(*m)).verified);
  EXPECT_TRUE(verifier.verify(*gate_report, factory_for(*m)).verified);
}

TEST(RaceVerifierTest, LivelockResolvedByReleasingBreakpoint) {
  // The writer must pass its racy store before it can open the gate the
  // reader busy-waits on; parking the writer livelocks the reader. §5.2:
  // temporarily release one triggered breakpoint.
  auto m = parse_ok(R"(module ll
global @x
global @gate
func @writer() {
entry:
  store 1, @x
  store 1, @gate
  ret
}
func @reader() {
entry:
  jmp wait
wait:
  %g = load @gate
  %c = icmp eq %g, 0
  br %c, spin, go
spin:
  io_delay 2
  jmp wait
go:
  %v = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @reader, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  auto reports = detect(*m);
  race::RaceReport* x_report = nullptr;
  for (race::RaceReport& r : reports) {
    if (r.object_name == "x") x_report = &r;
  }
  ASSERT_NE(x_report, nullptr);
  const RaceVerifier verifier;
  // The verifier must terminate (no infinite livelock) — and it cannot
  // catch the pair in the racing moment, because releasing the writer to
  // unblock the reader lets the store escape.
  const RaceVerifyResult result = verifier.verify(*x_report, factory_for(*m));
  EXPECT_GE(result.attempts, 1u);
}

TEST(RaceVerifierTest, LivelockReleaseFiresAndStillConfirmsRace) {
  // The writer's racy store sits inside @mu's critical section; the
  // reader's racy load sits just after its own lock/unlock of @mu. Parking
  // the writer at the store leaves it holding @mu, so the reader blocks on
  // its lock and the session livelocks (kAllSuspended). The §5.2 release
  // rule must fire — and because the writer loops, it comes back to the
  // store on the next iteration while the freed reader reaches its load:
  // the race is still confirmed, through the release.
  auto m = parse_ok(R"(module lr
global @x
global @mu
func @writer() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  lock @mu
  store %i, @x
  unlock @mu
  io_delay 6
  %n = add %i, 1
  %c = icmp slt %n, 40
  br %c, loop, out
out:
  ret
}
func @reader() {
entry:
  io_delay 50
  lock @mu
  unlock @mu
  %v = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @reader, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  auto reports = detect(*m);
  race::RaceReport* x_report = nullptr;
  for (race::RaceReport& r : reports) {
    if (r.object_name == "x") x_report = &r;
  }
  ASSERT_NE(x_report, nullptr);

  const RaceVerifier verifier;
  const RaceVerifyResult result = verifier.verify(*x_report, factory_for(*m));
  EXPECT_TRUE(result.verified);
  EXPECT_GE(result.livelock_releases, 1u);
  EXPECT_FALSE(result.livelocked);
  EXPECT_TRUE(x_report->verified);
}

TEST(RaceVerifierTest, ReportsWithoutInstructionsRejected) {
  auto m = parse_ok(kSteadyRace);
  race::RaceReport empty;
  const RaceVerifier verifier;
  EXPECT_FALSE(verifier.verify(empty, factory_for(*m)).verified);
}

// ---- dynamic vulnerability verifier ----

const char* kGuardedAttack = R"(module ga
global @flag
func @victim() {
entry:
  %v = load @flag
  %c = icmp ne %v, 0
  br %c, bad, out
bad:
  setuid 0
  ret
out:
  ret
}
func @setter() {
entry:
  io_delay 3
  store 1, @flag
  ret
}
func @main() {
entry:
  %a = thread_create @setter, 0
  %b = thread_create @victim, 0
  thread_join %a
  thread_join %b
  ret
}
)";

vuln::ExploitReport analyze_one(const ir::Module& m) {
  const ir::Function* victim = m.find_function("victim");
  const ir::Instruction* read = victim->entry()->front();
  const vuln::VulnerabilityAnalyzer analyzer(m);
  const vuln::VulnAnalysis analysis =
      analyzer.analyze_from(read, {{victim, read}});
  EXPECT_FALSE(analysis.exploits.empty());
  return analysis.exploits.front();
}

TEST(VulnVerifierTest, ReachesSiteAndObservesAttack) {
  auto m = parse_ok(kGuardedAttack);
  const vuln::ExploitReport exploit = analyze_one(*m);
  ASSERT_EQ(exploit.site->opcode(), ir::Opcode::kSetUid);

  // Provide the originating race so the verifier can steer the racing
  // order (store flag=1 before the victim's load) — the §6.2 "decide the
  // execution order of the racing instructions".
  const ir::Function* victim = m->find_function("victim");
  const ir::Function* setter = m->find_function("setter");
  race::RaceReport race;
  race.first.instr = victim->entry()->front();  // load @flag
  race.first.is_write = false;
  race.first.tid = 2;
  race.second.instr = setter->entry()->instructions()[1].get();  // store
  race.second.is_write = true;
  race.second.tid = 1;

  const VulnVerifier verifier;
  const VulnVerifyResult result =
      verifier.verify(exploit, factory_for(*m), &race);
  EXPECT_TRUE(result.site_reached);
  EXPECT_TRUE(result.attack_realized);
  bool saw_escalation = false;
  for (const interp::SecurityEvent& event : result.events) {
    saw_escalation |=
        event.kind == interp::SecurityEventKind::kPrivilegeEscalation;
  }
  EXPECT_TRUE(saw_escalation);
}

TEST(VulnVerifierTest, UnreachableSiteReportsDivergedBranches) {
  // Same shape but the flag is never set: the site cannot be reached and
  // the diverged branch comes back as a further input hint (§6.2).
  auto m = parse_ok(R"(module ur
global @flag
func @victim() {
entry:
  %v = load @flag
  %c = icmp ne %v, 0
  br %c, bad, out
bad:
  setuid 0
  ret
out:
  ret
}
func @main() {
entry:
  %b = thread_create @victim, 0
  thread_join %b
  ret
}
)");
  const vuln::ExploitReport exploit = analyze_one(*m);
  const VulnVerifier verifier;
  const VulnVerifyResult result = verifier.verify(exploit, factory_for(*m));
  EXPECT_FALSE(result.site_reached);
  EXPECT_FALSE(result.attack_realized);
  ASSERT_EQ(result.diverged_branches.size(), 1u);
  EXPECT_EQ(result.diverged_branches.front()->opcode(), ir::Opcode::kBr);
}

TEST(VulnVerifierTest, NullExploitRejected) {
  auto m = parse_ok(kGuardedAttack);
  const VulnVerifier verifier;
  vuln::ExploitReport empty;
  const VulnVerifyResult result = verifier.verify(empty, factory_for(*m));
  EXPECT_FALSE(result.site_reached);
  EXPECT_EQ(result.attempts, 0u);
}

TEST(VulnVerifierTest, KeepsAttemptingUntilConsequenceObserved) {
  // The site is reached on every run, but the security consequence only
  // manifests under schedules where the setter wins the race; the verifier
  // must not settle for the first site-reaching run.
  auto m = parse_ok(kGuardedAttack);
  const vuln::ExploitReport exploit = analyze_one(*m);
  VulnVerifier::Options options;
  options.max_attempts = 16;
  options.base_seed = 77;
  const VulnVerifier verifier(options);
  const VulnVerifyResult result = verifier.verify(exploit, factory_for(*m));
  EXPECT_TRUE(result.site_reached);
  EXPECT_TRUE(result.attack_realized);
}

}  // namespace
}  // namespace owl::verify
