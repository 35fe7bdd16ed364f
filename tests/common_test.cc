#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace gtpq {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  *ok = 7;
  EXPECT_EQ(ok.TakeValue(), 7);

  Result<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  auto p = r.TakeValue();
  EXPECT_EQ(*p, 5);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, SampleDistinct) {
  Rng rng(11);
  auto sparse = rng.SampleDistinct(1000, 10);
  EXPECT_EQ(sparse.size(), 10u);
  EXPECT_EQ(std::set<size_t>(sparse.begin(), sparse.end()).size(), 10u);
  auto dense = rng.SampleDistinct(10, 8);
  EXPECT_EQ(dense.size(), 8u);
  auto clamped = rng.SampleDistinct(3, 99);
  EXPECT_EQ(clamped.size(), 3u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(Split("a,,c", ',', /*skip_empty=*/false),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_TRUE(Split("", ',').empty());
}

TEST(StringUtilTest, JoinAndStrip) {
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_TRUE(StartsWith("gtpq-graph v1", "gtpq-"));
  EXPECT_FALSE(StartsWith("g", "gtpq"));
}

TEST(StringUtilTest, CheckedNumberParses) {
  uint32_t u = 7;
  EXPECT_TRUE(ParseU32("4294967295", &u));
  EXPECT_EQ(u, 4294967295u);
  for (const char* bad : {"", "4294967296", "-1", "-0", "+1", " 1", "1x"}) {
    EXPECT_FALSE(ParseU32(bad, &u)) << bad;
  }
  EXPECT_EQ(u, 4294967295u);  // untouched on failure

  int64_t i = 0;
  EXPECT_TRUE(ParseI64("-9223372036854775808", &i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
  for (const char* bad : {"", "9223372036854775808", "+1", "1.5", "abc"}) {
    EXPECT_FALSE(ParseI64(bad, &i)) << bad;
  }

  double d = 0;
  EXPECT_TRUE(ParseDouble("2.5e3", &d));
  EXPECT_EQ(d, 2500.0);
  for (const char* bad : {"", "1.2.3", "1e999", "nan", "inf", "1.0x"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
  EXPECT_EQ(d, 2500.0);
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-9876543), "-9,876,543");
}

TEST(TimerTest, Monotone) {
  Timer t;
  double a = t.ElapsedMicros();
  double b = t.ElapsedMicros();
  EXPECT_GE(b, a);
  t.Restart();
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

}  // namespace
}  // namespace gtpq
