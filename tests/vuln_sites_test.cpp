// Unit tests for the vulnerable-site taxonomy (§3.2).
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "vuln/sites.hpp"

namespace owl::vuln {
namespace {

class SitesTest : public ::testing::Test {
 protected:
  SitesTest() : b_(&m_) {
    g_ = m_.add_global("g");
    f_ = m_.add_function("f", ir::Type::void_type());
    b_.set_insert_point(f_->add_block("entry"));
  }

  ir::Module m_{"t"};
  ir::IRBuilder b_;
  ir::GlobalVariable* g_;
  ir::Function* f_;
};

TEST_F(SitesTest, MemoryOps) {
  EXPECT_EQ(classify_site(*b_.strcpy_(g_, g_)), SiteType::kMemoryOp);
  EXPECT_EQ(classify_site(*b_.memcpy_(g_, g_, b_.i64(1))),
            SiteType::kMemoryOp);
  EXPECT_EQ(classify_site(*b_.free_ptr(g_)), SiteType::kMemoryOp);
}

TEST_F(SitesTest, PrivilegeFileAndFork) {
  EXPECT_EQ(classify_site(*b_.setuid_(b_.i64(0))), SiteType::kPrivilegeOp);
  EXPECT_EQ(classify_site(*b_.file_access(b_.i64(1))), SiteType::kFileOp);
  EXPECT_EQ(classify_site(*b_.file_open(b_.i64(1))), SiteType::kFileOp);
  EXPECT_EQ(classify_site(*b_.file_write(b_.i64(3), g_, b_.i64(1))),
            SiteType::kFileOp);
  EXPECT_EQ(classify_site(*b_.fork_()), SiteType::kProcessFork);
  EXPECT_EQ(classify_site(*b_.eval_(b_.i64(1))), SiteType::kProcessFork);
}

TEST_F(SitesTest, IndirectCallIsAlwaysASite) {
  ir::Instruction* ld = b_.load(g_);
  EXPECT_EQ(classify_site(*b_.callptr(ld, {})), SiteType::kNullFuncPtrDeref);
}

TEST_F(SitesTest, PlainComputationIsNotASite) {
  ir::Instruction* v = b_.load(g_);
  EXPECT_FALSE(classify_site(*v).has_value());
  EXPECT_FALSE(classify_site(*b_.add(v, v)).has_value());
  EXPECT_FALSE(
      classify_site(*b_.icmp(ir::CmpPredicate::kEq, v, v)).has_value());
}

TEST_F(SitesTest, ScalarStoreIsNotASitePointerStoreIs) {
  ir::Instruction* v = b_.load(g_);              // i64 value
  EXPECT_FALSE(classify_site(*b_.store(v, g_)).has_value());
  ir::Instruction* p = b_.gep(g_, b_.i64(0));    // ptr value
  EXPECT_EQ(classify_site(*b_.store(p, g_)), SiteType::kPointerAssign);
}

TEST_F(SitesTest, PointerDerefNeedsCorruptedPointer) {
  ir::Instruction* ld = b_.load(g_);
  EXPECT_FALSE(classify_pointer_deref(*ld, false).has_value());
  EXPECT_EQ(classify_pointer_deref(*ld, true), SiteType::kNullPtrDeref);
  ir::Instruction* st = b_.store(b_.i64(1), g_);
  EXPECT_EQ(classify_pointer_deref(*st, true), SiteType::kNullPtrDeref);
  // Non-dereferencing instructions never classify.
  ir::Instruction* add = b_.add(ld, ld);
  EXPECT_FALSE(classify_pointer_deref(*add, true).has_value());
}

TEST_F(SitesTest, AllTypeNamesDistinct) {
  const SiteType all[] = {
      SiteType::kMemoryOp,      SiteType::kNullPtrDeref,
      SiteType::kNullFuncPtrDeref, SiteType::kPrivilegeOp,
      SiteType::kFileOp,        SiteType::kProcessFork,
      SiteType::kPointerAssign,
  };
  for (const SiteType a : all) {
    for (const SiteType b : all) {
      if (a != b) {
        EXPECT_NE(site_type_name(a), site_type_name(b));
      }
    }
    EXPECT_NE(site_type_name(a), "?");
  }
}

}  // namespace
}  // namespace owl::vuln
