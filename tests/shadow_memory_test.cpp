// Unit tests for the detector's paged shadow memory: page-boundary
// addressing, first-touch allocation, overflow pages for wild addresses,
// and the per-slot read set.
#include <gtest/gtest.h>

#include <vector>

#include "race/shadow_memory.hpp"

namespace owl::race {
namespace {

ShadowCell cell(ThreadId tid, std::uint64_t epoch) {
  ShadowCell c;
  c.tid = tid;
  c.epoch = epoch;
  return c;
}

TEST(PagedShadowTest, FirstAndLastSlotOfAPageAreDistinct) {
  PagedShadow shadow;
  const interp::Address first = 0;
  const interp::Address last = PagedShadow::kPageSlots - 1;
  shadow.slot(first).set_write(cell(1, 10));
  shadow.slot(last).set_write(cell(2, 20));
  EXPECT_EQ(shadow.pages_allocated(), 1u);
  EXPECT_EQ(shadow.slot(first).write.tid, 1u);
  EXPECT_EQ(shadow.slot(last).write.tid, 2u);
  EXPECT_EQ(shadow.slot(first).write.epoch, 10u);
  EXPECT_EQ(shadow.slot(last).write.epoch, 20u);
}

TEST(PagedShadowTest, AdjacentAddressesAcrossAPageBoundary) {
  PagedShadow shadow;
  const interp::Address last_of_page0 = PagedShadow::kPageSlots - 1;
  const interp::Address first_of_page1 = PagedShadow::kPageSlots;
  shadow.slot(last_of_page0).set_write(cell(1, 1));
  EXPECT_EQ(shadow.pages_allocated(), 1u);
  shadow.slot(first_of_page1).set_write(cell(2, 2));
  EXPECT_EQ(shadow.pages_allocated(), 2u);
  // Neighbours one byte apart live on different pages and never alias.
  EXPECT_EQ(shadow.slot(last_of_page0).write.tid, 1u);
  EXPECT_EQ(shadow.slot(first_of_page1).write.tid, 2u);
  EXPECT_FALSE(shadow.slot(last_of_page0 - 1).has_write);
  EXPECT_FALSE(shadow.slot(first_of_page1 + 1).has_write);
}

TEST(PagedShadowTest, PagesAllocateOnFirstTouchOnly) {
  PagedShadow shadow;
  EXPECT_EQ(shadow.pages_allocated(), 0u);
  shadow.slot(4096);  // touch allocates, even without writing
  EXPECT_EQ(shadow.pages_allocated(), 1u);
  EXPECT_FALSE(shadow.slot(4096).has_write);
  shadow.slot(4097);
  EXPECT_EQ(shadow.pages_allocated(), 1u);  // same page
}

TEST(PagedShadowTest, WildAddressesUseOverflowPages) {
  PagedShadow shadow;
  // A corrupted pointer far past the direct directory's coverage.
  const interp::Address wild =
      (PagedShadow::kDirectPages + 12345) * PagedShadow::kPageSlots + 7;
  shadow.slot(wild).set_write(cell(3, 33));
  EXPECT_EQ(shadow.pages_allocated(), 1u);
  EXPECT_EQ(shadow.slot(wild).write.tid, 3u);
  // The neighbouring byte is a distinct slot on the same overflow page.
  EXPECT_FALSE(shadow.slot(wild + 1).has_write);
  EXPECT_EQ(shadow.pages_allocated(), 1u);
}

TEST(ShadowSlotTest, ReadsKeepInsertionOrderAndReplaceInPlace) {
  ShadowSlot slot;
  EXPECT_FALSE(slot.has_read0);
  slot.add_read(cell(1, 10));
  slot.add_read(cell(2, 20));
  slot.add_read(cell(3, 30));
  ASSERT_NE(slot.find_read(2), nullptr);
  slot.find_read(2)->epoch = 25;  // replace in place, order unchanged
  std::vector<ThreadId> order;
  std::vector<std::uint64_t> epochs;
  slot.for_each_read([&](const ShadowCell& c) {
    order.push_back(c.tid);
    epochs.push_back(c.epoch);
  });
  EXPECT_EQ(order, (std::vector<ThreadId>{1, 2, 3}));
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{10, 25, 30}));
  EXPECT_EQ(slot.find_read(4), nullptr);
}

TEST(ShadowSlotTest, ClearReadsKeepsWriteAndAllowsRepopulation) {
  ShadowSlot slot;
  slot.set_write(cell(1, 1));
  slot.add_read(cell(2, 2));
  slot.add_read(cell(3, 3));
  slot.clear_reads();
  EXPECT_TRUE(slot.has_write);
  EXPECT_FALSE(slot.has_read0);
  slot.add_read(cell(7, 70));
  std::vector<ThreadId> order;
  slot.for_each_read([&](const ShadowCell& c) { order.push_back(c.tid); });
  EXPECT_EQ(order, (std::vector<ThreadId>{7}));
}

}  // namespace
}  // namespace owl::race
