// Unit tests for the happens-before race detector (TSan substrate) and the
// SKI-mode watch-list policy.
#include <gtest/gtest.h>

#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "race/tsan_detector.hpp"

namespace owl::race {
namespace {

std::unique_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  auto m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

std::vector<RaceReport> detect(const ir::Module& m,
                               const AnnotationSet* annotations = nullptr,
                               std::uint64_t seed = 1,
                               bool ski = false) {
  interp::MachineOptions options;
  interp::Machine machine(m, options);
  TsanDetector detector(annotations, ski);
  machine.add_observer(&detector);
  machine.start(m.find_function("main"));
  interp::RandomScheduler sched(seed);
  machine.run(sched);
  return detector.take_reports();
}

const char* kPlainRace = R"(module r
global @x
func @writer() {
entry:
  store 1, @x
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

TEST(TsanTest, DetectsPlainReadWriteRace) {
  auto m = parse_ok(kPlainRace);
  const auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);
  const RaceReport& r = reports.front();
  EXPECT_EQ(r.object_name, "x");
  ASSERT_NE(r.read_side(), nullptr);
  ASSERT_NE(r.write_side(), nullptr);
  EXPECT_EQ(r.read_side()->instr->opcode(), ir::Opcode::kLoad);
  EXPECT_EQ(r.write_side()->instr->opcode(), ir::Opcode::kStore);
  // Call stacks were captured for both sides.
  EXPECT_FALSE(r.first.stack.empty());
  EXPECT_FALSE(r.second.stack.empty());
}

TEST(TsanTest, LockProtectedAccessesDoNotRace) {
  auto m = parse_ok(R"(module l
global @mu
global @x
func @worker() {
entry:
  lock @mu
  %v = load @x
  %v2 = add %v, 1
  store %v2, @x
  unlock @mu
  ret
}
func @main() {
entry:
  %a = thread_create @worker, 0
  %b = thread_create @worker, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_TRUE(detect(*m, nullptr, seed).empty()) << "seed " << seed;
  }
}

TEST(TsanTest, JoinOrdersAccesses) {
  auto m = parse_ok(R"(module j
global @x
func @writer() {
entry:
  store 1, @x
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  thread_join %a
  %v = load @x
  ret
}
)");
  EXPECT_TRUE(detect(*m).empty());
}

TEST(TsanTest, ThreadCreateOrdersParentWrites) {
  auto m = parse_ok(R"(module c
global @x
func @reader() {
entry:
  %v = load @x
  ret
}
func @main() {
entry:
  store 9, @x
  %a = thread_create @reader, 0
  thread_join %a
  ret
}
)");
  EXPECT_TRUE(detect(*m).empty());
}

TEST(TsanTest, AtomicAccessesDoNotRace) {
  auto m = parse_ok(R"(module a
global @ctr
func @worker() {
entry:
  %old = atomic_add @ctr, 1
  ret
}
func @main() {
entry:
  %a = thread_create @worker, 0
  %b = thread_create @worker, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_TRUE(detect(*m, nullptr, seed).empty());
  }
}

TEST(TsanTest, HbAnnotationInstructionsOrderAccesses) {
  auto m = parse_ok(R"(module h
global @sync
global @x
func @producer() {
entry:
  store 1, @x
  hb_release @sync
  ret
}
func @consumer() {
entry:
  hb_acquire @sync
  %v = load @x
  ret
}
func @main() {
entry:
  %a = thread_create @producer, 0
  thread_join %a
  %b = thread_create @consumer, 0
  thread_join %b
  ret
}
)");
  EXPECT_TRUE(detect(*m).empty());
}

TEST(TsanTest, SameThreadNeverRacesWithItself) {
  auto m = parse_ok(R"(module s
global @x
func @main() {
entry:
  store 1, @x
  %v = load @x
  store 2, @x
  ret
}
)");
  EXPECT_TRUE(detect(*m).empty());
}

TEST(TsanTest, OccurrencesAccumulateOverLoop) {
  auto m = parse_ok(R"(module o
global @x
func @writer() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  store %i, @x
  %n = add %i, 1
  %c = icmp slt %n, 10
  br %c, loop, out
out:
  ret
}
func @reader() {
entry:
  jmp loop
loop:
  %i = phi [0, entry], [%n, loop]
  %v = load @x
  %n = add %i, 1
  %c = icmp slt %n, 10
  br %c, loop, out
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
  const auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);  // one static pair...
  EXPECT_GT(reports.front().occurrences, 1u);  // ...many manifestations
}

TEST(TsanTest, WriteWriteRaceGetsSupplementalRead) {
  auto m = parse_ok(R"(module ww
global @x
func @writer() {
entry:
  store 1, @x
  ret
}
func @main() {
entry:
  %a = thread_create @writer, 0
  %b = thread_create @writer, 0
  thread_join %a
  thread_join %b
  %v = load @x
  print %v
  ret
}
)");
  // Need a schedule where both writes happen (any schedule does) and the
  // main thread's read follows.
  const auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);
  const RaceReport& r = reports.front();
  EXPECT_TRUE(r.first.is_write && r.second.is_write);
  // §6.3: the first subsequent load was attached so Algorithm 1 has a
  // corrupted read to start from.
  ASSERT_TRUE(r.supplemental_read.has_value());
  EXPECT_EQ(r.supplemental_read->instr->opcode(), ir::Opcode::kLoad);
  EXPECT_EQ(r.read_side(), &*r.supplemental_read);
}

TEST(TsanTest, AnnotationSetSuppressesAdhocPair) {
  auto m = parse_ok(R"(module an
global @flag
global @data
func @setter() {
entry:
  store 1, @data
  store 1, @flag
  ret
}
func @waiter() {
entry:
  jmp loop
loop:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, loop, go
go:
  %v = load @data
  ret
}
func @main() {
entry:
  %a = thread_create @setter, 0
  %b = thread_create @waiter, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  // Unannotated: both the flag pair and the data pair are reported.
  const auto raw = detect(*m);
  EXPECT_EQ(raw.size(), 2u);

  // Annotate the busy-wait pair like §5.1 would.
  AnnotationSet annotations;
  const ir::Function* setter = m->find_function("setter");
  annotations.add_release_store(
      setter->entry()->instructions()[1].get());  // store 1, @flag
  const ir::Function* waiter = m->find_function("waiter");
  annotations.add_acquire_load(
      waiter->find_block("loop")->front());  // load @flag
  EXPECT_EQ(annotations.pair_count(), 1u);

  const auto annotated = detect(*m, &annotations);
  EXPECT_TRUE(annotated.empty());  // flag pair AND the data it ordered
}

TEST(SkiTest, WatchListLogsReadsUntilSanitizingWrite) {
  auto m = parse_ok(R"(module sk
global @x
func @writer() {
entry:
  store 1, @x
  ret
}
func @reader() {
entry:
  %v1 = load @x
  %v2 = load @x
  store 5, @x
  %v3 = load @x
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
  const auto reports = detect(*m, nullptr, 3, /*ski=*/true);
  ASSERT_GE(reports.size(), 1u);
  // In SKI mode the racy address is watched and reads are logged; the
  // reader's own store sanitizes the address, so %v3 is never logged.
  bool found_watched = false;
  for (const RaceReport& r : reports) {
    if (!r.watched_reads.empty()) {
      found_watched = true;
      for (const AccessRecord& rec : r.watched_reads) {
        EXPECT_FALSE(rec.is_write);
        EXPECT_FALSE(rec.stack.empty());
      }
    }
  }
  EXPECT_TRUE(found_watched);
}

TEST(MergeTest, CollapsesSamePairAcrossRuns) {
  auto m = parse_ok(kPlainRace);
  std::vector<RaceReport> merged;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    merge_reports(merged, detect(*m, nullptr, seed));
  }
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_GE(merged.front().occurrences, 4u);
}

TEST(MergeTest, KeepsDistinctPairs) {
  std::vector<RaceReport> merged;
  auto m1 = parse_ok(kPlainRace);
  merge_reports(merged, detect(*m1, nullptr, 1));
  // A different module yields instruction pairs with different ids.
  auto m2 = parse_ok(kPlainRace);
  merge_reports(merged, detect(*m2, nullptr, 1));
  EXPECT_EQ(merged.size(), 2u);
}

TEST(ReportTest, KeyIsUnorderedPair) {
  auto m = parse_ok(kPlainRace);
  auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);
  RaceReport swapped = reports.front();
  std::swap(swapped.first, swapped.second);
  EXPECT_EQ(swapped.key(), reports.front().key());
}

TEST(ReportTest, ToStringMentionsObjectAndStacks) {
  auto m = parse_ok(kPlainRace);
  auto reports = detect(*m);
  ASSERT_EQ(reports.size(), 1u);
  ir::NameTable names;
  const std::string text = reports.front().to_string(names);
  EXPECT_NE(text.find("data race"), std::string::npos);
  EXPECT_NE(text.find("'x'"), std::string::npos);
  EXPECT_NE(text.find("writer"), std::string::npos);
  EXPECT_NE(text.find("reader"), std::string::npos);
}

}  // namespace
}  // namespace owl::race
