#include "util/string_util.h"

#include <gtest/gtest.h>

namespace watchman {
namespace {

TEST(CompressQueryIdTest, CollapsesDelimiterRuns) {
  const std::string a = CompressQueryId("SELECT  *  FROM   bench");
  const std::string b = CompressQueryId("select * from bench");
  EXPECT_EQ(a, b);
}

TEST(CompressQueryIdTest, EquivalentFormattingsMapToSameId) {
  const std::string a =
      CompressQueryId("SELECT count(*) FROM bench WHERE k2 = 1");
  const std::string b =
      CompressQueryId("select count ( * )\n\tfrom bench\nwhere k2=1");
  // Note: "k2=1" vs "k2 = 1" differ after compression (no delimiter
  // between k2 and =); only delimiter runs collapse.
  EXPECT_NE(a, b);
  const std::string c =
      CompressQueryId("select  count( * )  from  bench  where  k2  =  1");
  EXPECT_EQ(a, c);
}

TEST(CompressQueryIdTest, LowercasesLetters) {
  EXPECT_EQ(CompressQueryId("ABC"), "abc");
}

TEST(CompressQueryIdTest, NoLeadingOrTrailingSeparator) {
  const std::string id = CompressQueryId("  select x  ");
  EXPECT_FALSE(id.empty());
  EXPECT_NE(id.front(), '\x1f');
  EXPECT_NE(id.back(), '\x1f');
}

TEST(CompressQueryIdTest, EmptyAndAllDelimiters) {
  EXPECT_EQ(CompressQueryId(""), "");
  EXPECT_EQ(CompressQueryId("   \t\n,,(())"), "");
}

TEST(CompressQueryIdTest, IntoVariantMatchesAndReusesBuffer) {
  std::string scratch;
  CompressQueryIdInto("SELECT  *  FROM   bench  WHERE  k100 = 37", &scratch);
  EXPECT_EQ(scratch, CompressQueryId("SELECT  *  FROM   bench  WHERE  k100 = 37"));
  const char* buffer = scratch.data();
  const size_t capacity = scratch.capacity();
  // A shorter query reuses the scratch buffer: no reallocation.
  CompressQueryIdInto("select 1", &scratch);
  EXPECT_EQ(scratch, CompressQueryId("select 1"));
  EXPECT_EQ(scratch.data(), buffer);
  EXPECT_EQ(scratch.capacity(), capacity);
}

TEST(CompressQueryIdTest, FoldsOnlyAsciiUppercaseForEveryByte) {
  // Pins the C-locale mapping byte by byte, independent of the process
  // locale: A-Z fold to a-z, every other non-delimiter byte (>= 0x80
  // included) passes through, and a delimiter becomes one separator.
  const std::string delimiters(" \t\n\r,();");
  std::string scratch;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string text = std::string("x") + c + "y";
    std::string expected;
    if (delimiters.find(c) != std::string::npos) {
      expected = "x\x1fy";
    } else {
      expected = std::string("x") +
                 (c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) +
                 "y";
    }
    CompressQueryIdInto(text, &scratch);
    EXPECT_EQ(scratch, expected) << "byte " << b;
    EXPECT_EQ(CompressQueryId(text), expected) << "byte " << b;
  }
}

TEST(CompressQueryIdTest, DistinctQueriesStayDistinct) {
  EXPECT_NE(CompressQueryId("select a from t"),
            CompressQueryId("select b from t"));
}

TEST(SplitTest, BasicSplit) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto parts = Split(",a,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(HumanBytesTest, Formats) {
  EXPECT_EQ(HumanBytes(0), "0 B");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1024), "1.0 KiB");
  EXPECT_EQ(HumanBytes(16882469), "16.1 MiB");
  EXPECT_EQ(HumanBytes(uint64_t{3} << 30), "3.0 GiB");
}

TEST(ParseByteSizeTest, AcceptsPlainAndSuffixedSizes) {
  EXPECT_EQ(*ParseByteSize("262144"), 262144u);
  EXPECT_EQ(*ParseByteSize("512b"), 512u);
  EXPECT_EQ(*ParseByteSize("300k"), 300u << 10);
  EXPECT_EQ(*ParseByteSize("256K"), 256u << 10);
  EXPECT_EQ(*ParseByteSize("64m"), 64u << 20);
  EXPECT_EQ(*ParseByteSize("64MB"), 64u << 20);
  EXPECT_EQ(*ParseByteSize("64MiB"), 64u << 20);
  EXPECT_EQ(*ParseByteSize("2g"), uint64_t{2} << 30);
}

TEST(ParseByteSizeTest, RejectsMalformedZeroAndOverflow) {
  for (const char* bad :
       {"", "m", "-5", "1.5m", "64x", "64mbb", "0", "0k", "m64",
        "99999999999999999999", "18446744073709551615g"}) {
    auto parsed = ParseByteSize(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(0.91824, 2), "0.92");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("lnc-ra(k=4)", "lnc-ra"));
  EXPECT_FALSE(StartsWith("lnc", "lnc-ra"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(ParseFlagTest, MatchesOnlyTheNamedFlag) {
  std::string value;
  EXPECT_TRUE(ParseFlag("--port=9736", "port", &value));
  EXPECT_EQ(value, "9736");
  EXPECT_TRUE(ParseFlag("--host=", "host", &value));
  EXPECT_EQ(value, "");
  EXPECT_FALSE(ParseFlag("--ports=1", "port", &value));
  EXPECT_FALSE(ParseFlag("--port", "port", &value));
  EXPECT_FALSE(ParseFlag("port=1", "port", &value));
}

TEST(ParseUintTest, AcceptsDigitsUpToTheBound) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseUint("0", 10, &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseUint("65535", 65535, &value));  // exactly the maximum
  EXPECT_EQ(value, 65535u);
  EXPECT_TRUE(ParseUint("9999999999", UINT64_MAX, &value));  // ten digits
  EXPECT_EQ(value, 9999999999u);
}

TEST(ParseUintTest, RejectsMalformedAndOutOfRangeText) {
  uint64_t value = 7;
  EXPECT_FALSE(ParseUint("", 65535, &value));
  EXPECT_FALSE(ParseUint("12ab", 65535, &value));   // a non-digit
  EXPECT_FALSE(ParseUint(" 12", 65535, &value));
  EXPECT_FALSE(ParseUint("+12", 65535, &value));    // a sign
  EXPECT_FALSE(ParseUint("-12", 65535, &value));
  EXPECT_FALSE(ParseUint("65536", 65535, &value));  // the maximum plus one
  // 11 digits are rejected whatever the bound.
  EXPECT_FALSE(ParseUint("42949672970", UINT64_MAX, &value));
  // glibc's atoi truncates this to 1; here it exceeds an int bound.
  EXPECT_FALSE(ParseUint("4294967297", 2147483647, &value));
  // A rejected parse leaves the output untouched.
  EXPECT_EQ(value, 7u);
}

}  // namespace
}  // namespace watchman
