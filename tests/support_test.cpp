// Unit tests for src/support.
#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/status.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace owl {
namespace {

// ---- Status / Result ----

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = parse_error("bad token");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.to_string(), "parse-error: bad token");
}

TEST(StatusTest, AllConstructorsMapToTheirCodes) {
  EXPECT_EQ(invalid_argument_error("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(not_found_error("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(failed_precondition_error("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(verify_error("x").code(), StatusCode::kVerifyError);
  EXPECT_EQ(runtime_error("x").code(), StatusCode::kRuntimeError);
  EXPECT_EQ(unimplemented_error("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(internal_error("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(not_found_error("nope"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueOrDieThrowsOnError) {
  Result<int> r(internal_error("boom"));
  EXPECT_THROW(std::move(r).value_or_die(), std::runtime_error);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ---- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextBelowZeroIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(RngTest, NextInInclusiveRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_in(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(13);
  Rng split = a.split();
  // The split stream should not replay the parent's next values.
  Rng b(13);
  b.next();  // advance past the draw consumed by split()
  EXPECT_NE(split.next(), b.next());
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
  EXPECT_FALSE(rng.chance(1, 0));  // zero denominator: never
}

// ---- strings ----

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(str_format("%s", ""), "");
}

TEST(StringsTest, ParseInt64Valid) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_int64("123", v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(parse_int64("-45", v));
  EXPECT_EQ(v, -45);
  EXPECT_TRUE(parse_int64("  77 ", v));
  EXPECT_EQ(v, 77);
  EXPECT_TRUE(parse_int64("9223372036854775807", v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(parse_int64("-9223372036854775808", v));
  EXPECT_EQ(v, INT64_MIN);
}

TEST(StringsTest, ParseInt64Invalid) {
  std::int64_t v = 0;
  EXPECT_FALSE(parse_int64("", v));
  EXPECT_FALSE(parse_int64("-", v));
  EXPECT_FALSE(parse_int64("12x", v));
  EXPECT_FALSE(parse_int64("9223372036854775808", v));   // overflow
  EXPECT_FALSE(parse_int64("-9223372036854775809", v));  // underflow
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(24641), "24,641");
  EXPECT_EQ(with_commas(18446744073709551614ULL), "18,446,744,073,709,551,614");
}

TEST(StringsTest, IsIdentifier) {
  EXPECT_TRUE(is_identifier("foo"));
  EXPECT_TRUE(is_identifier("_x1.y$"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier("a b"));
}

// ---- table ----

TEST(TableTest, AlignsColumns) {
  TableFormatter t({"Name", "N"}, {Align::kLeft, Align::kRight});
  t.add_row({"apache", "715"});
  t.add_row({"x", "3"});
  const std::string out = t.render();
  // Column widths: "apache" (6) and "715" (3, right-aligned).
  EXPECT_NE(out.find("apache | 715"), std::string::npos);
  EXPECT_NE(out.find("x      |   3"), std::string::npos);
}

TEST(TableTest, RuleRendersDashes) {
  TableFormatter t({"A"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string out = t.render();
  // header rule + explicit rule
  std::size_t dashes = 0;
  for (const char c : out) {
    if (c == '-') ++dashes;
  }
  EXPECT_GE(dashes, 2u);
  EXPECT_EQ(t.row_count(), 3u);
}

// ---- stats ----

TEST(StatsTest, EmptyIsNaN) {
  SampleStats s;
  EXPECT_TRUE(std::isnan(s.percentile(50)));
}

TEST(StatsTest, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
}

TEST(StatsTest, InterleavedAddAndQuery) {
  SampleStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  EXPECT_EQ(s.count(), 3u);
}

}  // namespace
}  // namespace owl
