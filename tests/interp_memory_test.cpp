// Unit tests for the simulated memory (object bounds, liveness, faults, and
// raw writes outside the allocated range).
#include <gtest/gtest.h>

#include "interp/memory.hpp"

namespace owl::interp {
namespace {

TEST(MemoryTest, AllocateInitializesCells) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kGlobal, 4, 9, "g");
  for (int i = 0; i < 4; ++i) {
    Word v = 0;
    EXPECT_EQ(mem.load(a + static_cast<Address>(i) * 8, v), MemFault::kNone);
    EXPECT_EQ(v, 9);
  }
}

TEST(MemoryTest, StoreThenLoad) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kHeap, 2, 0);
  EXPECT_EQ(mem.store(a + 8, 42), MemFault::kNone);
  Word v = 0;
  EXPECT_EQ(mem.load(a + 8, v), MemFault::kNone);
  EXPECT_EQ(v, 42);
}

TEST(MemoryTest, NullGuardPage) {
  Memory mem;
  Word v = 0;
  EXPECT_EQ(mem.load(0, v), MemFault::kNullDeref);
  EXPECT_EQ(mem.load(8, v), MemFault::kNullDeref);
  EXPECT_EQ(mem.store(4095, 1), MemFault::kNullDeref);
}

TEST(MemoryTest, OutOfBoundsBetweenObjects) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kHeap, 1, 0);
  Word v = 0;
  // The red-zone cell after the object is unmapped.
  EXPECT_EQ(mem.load(a + 8, v), MemFault::kOutOfBounds);
}

TEST(MemoryTest, UnalignedAccessRoundsDown) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kHeap, 1, 0);
  EXPECT_EQ(mem.store(a + 3, 5), MemFault::kNone);
  Word v = 0;
  EXPECT_EQ(mem.load(a, v), MemFault::kNone);
  EXPECT_EQ(v, 5);
}

TEST(MemoryTest, FreeMarksObjectAndDetectsUseAfterFree) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kHeap, 2, 7);
  EXPECT_EQ(mem.free_heap(a), MemFault::kNone);
  Word v = 0;
  EXPECT_EQ(mem.load(a, v), MemFault::kUseAfterFree);
  // The stale value is still observable (what UAF exploits read).
  EXPECT_EQ(mem.load_raw(a), 7);
  EXPECT_EQ(mem.store(a, 1), MemFault::kUseAfterFree);
}

TEST(MemoryTest, DoubleFree) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kHeap, 1, 0);
  EXPECT_EQ(mem.free_heap(a), MemFault::kNone);
  EXPECT_EQ(mem.free_heap(a), MemFault::kDoubleFree);
}

TEST(MemoryTest, BadFree) {
  Memory mem;
  const Address g = mem.allocate(ObjectKind::kGlobal, 1, 0, "g");
  EXPECT_EQ(mem.free_heap(g), MemFault::kBadFree);  // not heap
  const Address h = mem.allocate(ObjectKind::kHeap, 2, 0);
  EXPECT_EQ(mem.free_heap(h + 8), MemFault::kBadFree);  // interior pointer
  EXPECT_EQ(mem.free_heap(0), MemFault::kNullDeref);
}

TEST(MemoryTest, PopFrameKillsStackObjects) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kStack, 1, 0, "buf", 7);
  const Address b = mem.allocate(ObjectKind::kStack, 1, 0, "buf2", 8);
  mem.pop_frame(7);
  Word v = 0;
  EXPECT_EQ(mem.load(a, v), MemFault::kUseAfterFree);
  EXPECT_EQ(mem.load(b, v), MemFault::kNone);  // different frame survives
}

TEST(MemoryTest, FindObjectAndRemainingCells) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kGlobal, 8, 0, "outbuf");
  const MemObject* obj = mem.find_object(a + 24);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->name, "outbuf");
  EXPECT_EQ(obj->base, a);
  EXPECT_EQ(mem.cells_until_end(a), 8u);
  EXPECT_EQ(mem.cells_until_end(a + 7 * 8), 1u);
  EXPECT_EQ(mem.cells_until_end(a + 8 * 8), 0u);
  EXPECT_EQ(mem.find_object(a + 8 * 8), nullptr);
}

TEST(MemoryTest, RawWritesIgnoreBounds) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kHeap, 1, 0);
  // Writing the red zone raw works (models corruption spilling over).
  mem.store_raw(a + 8, 123);
  EXPECT_EQ(mem.load_raw(a + 8), 123);
}

TEST(MemoryTest, AllocateOverRawSpillResetsCellsAndKeepsRedZone) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kHeap, 1, 0);
  // A runaway copy past the last object: the next object will start at
  // a + 16 (after a's red zone), with its own red zone at a + 32.
  const Address next = a + 16;
  mem.store_raw(next, 11);
  mem.store_raw(next + 8, 12);
  mem.store_raw(next + 16, 13);
  mem.store_raw(next + 24, 14);
  EXPECT_EQ(mem.load_raw(next + 8), 12);
  EXPECT_EQ(mem.find_object(next), nullptr);

  const Address b = mem.allocate(ObjectKind::kHeap, 2, 5);
  ASSERT_EQ(b, next);
  Word v = 0;
  EXPECT_EQ(mem.load(b, v), MemFault::kNone);
  EXPECT_EQ(v, 5);  // the object's cells start from init
  EXPECT_EQ(mem.load(b + 8, v), MemFault::kNone);
  EXPECT_EQ(v, 5);
  EXPECT_EQ(mem.load_raw(b + 16), 13);  // its red zone keeps the spill
  EXPECT_EQ(mem.load(b + 16, v), MemFault::kOutOfBounds);
  EXPECT_EQ(mem.load_raw(b + 24), 14);  // past the end: still spilled

  const Address c = mem.allocate(ObjectKind::kStack, 1, 0, "c", 1);
  ASSERT_EQ(c, b + 24);
  EXPECT_EQ(mem.load_raw(c), 0);
  EXPECT_EQ(mem.load_raw(c + 8), 0);
}

TEST(MemoryTest, RawWriteBelowNullGuardReadsBack) {
  Memory mem;
  mem.allocate(ObjectKind::kGlobal, 1, 0, "g");
  mem.store_raw(16, 77);
  EXPECT_EQ(mem.load_raw(16), 77);
  EXPECT_EQ(mem.load_raw(21), 77);  // unaligned: same cell
  EXPECT_EQ(mem.load_raw(24), 0);
  Word v = 0;
  EXPECT_EQ(mem.load(16, v), MemFault::kNullDeref);  // still unmapped
  EXPECT_EQ(mem.find_object(16), nullptr);
  mem.store_raw(kNullGuard - 8, 5);
  EXPECT_EQ(mem.load_raw(kNullGuard - 1), 5);
}

TEST(MemoryTest, FindObjectOnUnalignedAndRedZoneAddresses) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kGlobal, 2, 0, "a");
  const Address b = mem.allocate(ObjectKind::kGlobal, 1, 0, "b");
  ASSERT_NE(mem.find_object(a + 3), nullptr);
  EXPECT_EQ(mem.find_object(a + 3)->name, "a");
  ASSERT_NE(mem.find_object(a + 15), nullptr);
  EXPECT_EQ(mem.find_object(a + 15)->base, a);
  EXPECT_EQ(mem.find_object(a + 16), nullptr);  // a's red zone
  EXPECT_EQ(mem.find_object(a + 19), nullptr);
  EXPECT_EQ(mem.find_object(b - 1), nullptr);
  ASSERT_NE(mem.find_object(b + 7), nullptr);
  EXPECT_EQ(mem.find_object(b + 7)->name, "b");
  EXPECT_EQ(mem.find_object(b + 8), nullptr);
  EXPECT_EQ(mem.find_object(b + 4096), nullptr);  // past the last object
  EXPECT_EQ(mem.find_object(kNullGuard - 1), nullptr);
  EXPECT_EQ(mem.cells_until_end(a + 9), 1u);
}

TEST(MemoryTest, PopFrameWithInterleavedFrames) {
  Memory mem;
  const Address a1 = mem.allocate(ObjectKind::kStack, 1, 1, "a1", 1);
  const Address b1 = mem.allocate(ObjectKind::kStack, 2, 2, "b1", 2);
  const Address h = mem.allocate(ObjectKind::kHeap, 1, 3);
  const Address a2 = mem.allocate(ObjectKind::kStack, 1, 4, "a2", 1);
  const Address b2 = mem.allocate(ObjectKind::kStack, 1, 5, "b2", 2);
  Word v = 0;
  mem.pop_frame(2);
  EXPECT_EQ(mem.load(b1, v), MemFault::kUseAfterFree);
  EXPECT_EQ(mem.load(b1 + 8, v), MemFault::kUseAfterFree);
  EXPECT_EQ(mem.load(b2, v), MemFault::kUseAfterFree);
  EXPECT_EQ(mem.load(a1, v), MemFault::kNone);
  EXPECT_EQ(mem.load(a2, v), MemFault::kNone);
  mem.pop_frame(2);  // a second pop changes nothing
  EXPECT_EQ(mem.load(a1, v), MemFault::kNone);

  const Address a3 = mem.allocate(ObjectKind::kStack, 1, 6, "a3", 1);
  mem.pop_frame(1);
  EXPECT_EQ(mem.load(a1, v), MemFault::kUseAfterFree);
  EXPECT_EQ(mem.load(a2, v), MemFault::kUseAfterFree);
  EXPECT_EQ(mem.load(a3, v), MemFault::kUseAfterFree);
  EXPECT_EQ(v, 6);  // a dangling read still sees the stale cell
  EXPECT_EQ(mem.load(h, v), MemFault::kNone);  // heap is not frame-owned
  EXPECT_EQ(v, 3);
}

TEST(MemoryTest, ObjectsAreContiguousWithRedZone) {
  Memory mem;
  const Address a = mem.allocate(ObjectKind::kGlobal, 2, 0, "a");
  const Address b = mem.allocate(ObjectKind::kGlobal, 1, 0, "b");
  // One 8-byte red-zone cell between objects: overflow index cells+1
  // lands exactly at the next object (the Libsafe ret-slot layout).
  EXPECT_EQ(b, a + 2 * 8 + 8);
}

}  // namespace
}  // namespace owl::interp
