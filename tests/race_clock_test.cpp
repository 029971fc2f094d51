// Unit tests for vector clocks.
#include <gtest/gtest.h>

#include "race/vector_clock.hpp"

namespace owl::race {
namespace {

TEST(VectorClockTest, DefaultIsEmptyAndZero) {
  VectorClock c;
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.get(0), 0u);
  EXPECT_EQ(c.get(100), 0u);
}

TEST(VectorClockTest, IncrementAndGet) {
  VectorClock c;
  c.increment(2);
  c.increment(2);
  c.increment(0);
  EXPECT_EQ(c.get(2), 2u);
  EXPECT_EQ(c.get(0), 1u);
  EXPECT_EQ(c.get(1), 0u);
}

TEST(VectorClockTest, JoinIsPointwiseMax) {
  VectorClock a;
  a.set(0, 5);
  a.set(1, 1);
  VectorClock b;
  b.set(1, 3);
  b.set(2, 7);
  a.join(b);
  EXPECT_EQ(a.get(0), 5u);
  EXPECT_EQ(a.get(1), 3u);
  EXPECT_EQ(a.get(2), 7u);
}

TEST(VectorClockTest, LeqPartialOrder) {
  VectorClock a;
  a.set(0, 1);
  VectorClock b;
  b.set(0, 2);
  b.set(1, 1);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));

  VectorClock c;
  c.set(1, 5);
  // a and c are concurrent: neither leq the other.
  EXPECT_FALSE(a.leq(c));
  EXPECT_FALSE(c.leq(a));
  // Reflexive.
  EXPECT_TRUE(a.leq(a));
}

TEST(VectorClockTest, EmptyLeqEverything) {
  VectorClock empty;
  VectorClock any;
  any.set(3, 9);
  EXPECT_TRUE(empty.leq(any));
  EXPECT_TRUE(empty.leq(empty));
}

TEST(VectorClockTest, EpochLeq) {
  VectorClock c;
  c.set(1, 4);
  EXPECT_TRUE(VectorClock::epoch_leq(1, 4, c));
  EXPECT_TRUE(VectorClock::epoch_leq(1, 3, c));
  EXPECT_FALSE(VectorClock::epoch_leq(1, 5, c));
  EXPECT_FALSE(VectorClock::epoch_leq(2, 1, c));
}

TEST(VectorClockTest, JoinGrowsCapacity) {
  VectorClock a;
  VectorClock b;
  b.set(9, 2);
  a.join(b);
  EXPECT_EQ(a.get(9), 2u);
  EXPECT_GE(a.size(), 10u);
}

TEST(VectorClockTest, ToString) {
  VectorClock c;
  c.set(0, 1);
  c.set(2, 3);
  EXPECT_EQ(c.to_string(), "[1,0,3]");
  EXPECT_EQ(VectorClock().to_string(), "[]");
}

// Happens-before transitivity through join: if a <= b and b <= c then
// a <= c (exercised as the release/acquire composition the detector uses).
TEST(VectorClockTest, TransitivityThroughJoin) {
  VectorClock a;
  a.set(0, 2);
  VectorClock b = a;
  b.set(1, 1);
  VectorClock c = b;
  c.set(2, 4);
  EXPECT_TRUE(a.leq(b));
  EXPECT_TRUE(b.leq(c));
  EXPECT_TRUE(a.leq(c));
}


// --- edge cases for the fast-substrate rework ---

// leq across clocks of different lengths: components past the shorter
// clock's end compare against an implicit 0 in both directions.
TEST(VectorClockTest, LeqDifferentLengths) {
  VectorClock shorter;
  shorter.set(0, 1);
  VectorClock longer;
  longer.set(0, 1);
  longer.set(5, 3);
  EXPECT_TRUE(shorter.leq(longer));
  EXPECT_FALSE(longer.leq(shorter));  // longer[5]=3 > implicit 0

  // A longer clock whose tail is all zeros still leq's a shorter one.
  VectorClock padded;
  padded.set(0, 1);
  padded.set(7, 0);
  EXPECT_TRUE(padded.leq(shorter));
  EXPECT_TRUE(shorter.leq(padded));
}

// epoch_leq at the boundary epoch 0: epoch 0 happens-before everything,
// including a clock that has never seen the thread at all.
TEST(VectorClockTest, EpochLeqAtBoundaryZero) {
  const VectorClock empty;
  EXPECT_TRUE(VectorClock::epoch_leq(0, 0, empty));
  EXPECT_TRUE(VectorClock::epoch_leq(99, 0, empty));
  EXPECT_FALSE(VectorClock::epoch_leq(0, 1, empty));
  VectorClock c;
  c.set(3, 2);
  EXPECT_TRUE(VectorClock::epoch_leq(3, 0, c));
  EXPECT_TRUE(VectorClock::epoch_leq(4, 0, c));  // past the end
  EXPECT_FALSE(VectorClock::epoch_leq(4, 1, c));
}

// Join growth: size lands exactly on the source size (to_string/size are
// observable), while capacity grows geometrically so interleaved
// single-tid growth does not reallocate per element.
TEST(VectorClockTest, JoinGrowthIsExactInSizeGeometricInCapacity) {
  VectorClock a;
  VectorClock b;
  b.set(6, 9);
  a.join(b);
  EXPECT_EQ(a.size(), 7u);           // exact: matches b's size
  EXPECT_GE(a.capacity(), a.size());
  EXPECT_EQ(a.get(6), 9u);
  EXPECT_EQ(a.get(5), 0u);

  // Interleaved increments over increasing tids reuse reserved capacity.
  VectorClock c;
  std::size_t reallocations = 0;
  std::size_t last_capacity = c.capacity();
  for (ThreadId tid = 0; tid < 64; ++tid) {
    c.increment(tid);
    if (c.capacity() != last_capacity) {
      ++reallocations;
      last_capacity = c.capacity();
    }
  }
  EXPECT_EQ(c.size(), 64u);
  // Geometric growth: ~log2(64) reallocation steps, not one per tid.
  EXPECT_LE(reallocations, 8u);
  for (ThreadId tid = 0; tid < 64; ++tid) {
    EXPECT_EQ(c.get(tid), 1u);
  }
}

// Joining an empty clock is a strict no-op (the fast substrate relies on
// this for its "never finished" thread slots).
TEST(VectorClockTest, JoinWithEmptyIsNoOp) {
  VectorClock a;
  a.set(2, 5);
  const std::string before = a.to_string();
  a.join(VectorClock());
  EXPECT_EQ(a.to_string(), before);
  EXPECT_EQ(a.size(), 3u);
}

}  // namespace
}  // namespace owl::race
