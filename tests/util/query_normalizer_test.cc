#include "util/query_normalizer.h"

#include <gtest/gtest.h>

namespace watchman {
namespace {

TEST(QueryNormalizerTest, FormattingInvariance) {
  EXPECT_EQ(NormalizeQuery("SELECT  a FROM t"),
            NormalizeQuery("select a\nfrom   t"));
}

TEST(QueryNormalizerTest, ConjunctOrderInvariance) {
  const std::string a = NormalizeQuery(
      "select count(*) from bench where k2 = 1 and k10 = 7 and k100 = 55");
  const std::string b = NormalizeQuery(
      "select count(*) from bench where k100 = 55 and k2 = 1 and k10 = 7");
  EXPECT_EQ(a, b);
}

TEST(QueryNormalizerTest, DistinctPredicatesStayDistinct) {
  EXPECT_NE(NormalizeQuery("select * from t where a = 1 and b = 2"),
            NormalizeQuery("select * from t where a = 2 and b = 1"));
}

TEST(QueryNormalizerTest, InListOrderInvariance) {
  const std::string a =
      NormalizeQuery("select * from t where region in (asia, europe)");
  const std::string b =
      NormalizeQuery("select * from t where region in (europe, asia)");
  EXPECT_EQ(a, b);
}

TEST(QueryNormalizerTest, InListAndConjunctsTogether) {
  const std::string a = NormalizeQuery(
      "select sum(x) from t where k in (3, 1, 2) and y = 5");
  const std::string b = NormalizeQuery(
      "select sum(x) from t where y = 5 and k in (2, 1, 3)");
  EXPECT_EQ(a, b);
}

TEST(QueryNormalizerTest, SelectListOrderIsPreserved) {
  // Only WHERE conjuncts commute; the projection list does not.
  EXPECT_NE(NormalizeQuery("select a, b from t"),
            NormalizeQuery("select b, a from t"));
}

TEST(QueryNormalizerTest, TopLevelOrBlocksReordering) {
  // "x = 1 and y = 2 or z = 3" must NOT be treated as commutative
  // conjuncts (OR binds looser; reordering would change semantics).
  const std::string a =
      NormalizeQuery("select * from t where x = 1 and y = 2 or z = 3");
  const std::string b =
      NormalizeQuery("select * from t where y = 2 or z = 3 and x = 1");
  EXPECT_NE(a, b);
}

TEST(QueryNormalizerTest, ParenthesizedOrWithinConjunctReorders) {
  const std::string a = NormalizeQuery(
      "select * from t where (x = 1 or x = 2) and y = 3");
  const std::string b = NormalizeQuery(
      "select * from t where y = 3 and (x = 1 or x = 2)");
  EXPECT_EQ(a, b);
}

TEST(QueryNormalizerTest, WhereClauseEndsAtGroupBy) {
  // The GROUP BY list must not be absorbed into the conjunct sort.
  const std::string a = NormalizeQuery(
      "select k, count(*) from t where a = 1 and b = 2 group by k");
  const std::string b = NormalizeQuery(
      "select k, count(*) from t where b = 2 and a = 1 group by k");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, NormalizeQuery(
                   "select k, count(*) from t where a = 1 and b = 2 "
                   "group by j"));
}

TEST(QueryNormalizerTest, QueriesWithoutWhereUntouched) {
  EXPECT_EQ(NormalizeQuery("select count(*) from t"),
            NormalizeQuery("SELECT COUNT( * ) FROM t"));
}

TEST(QueryNormalizerTest, NestedSubqueryConjunctsKeptIntact) {
  // Depth > 0 "and" tokens do not split conjuncts.
  const std::string a = NormalizeQuery(
      "select * from t where exists (select 1 from u where p = 1 and "
      "q = 2) and r = 3");
  const std::string b = NormalizeQuery(
      "select * from t where r = 3 and exists (select 1 from u where "
      "p = 1 and q = 2)");
  EXPECT_EQ(a, b);
}

TEST(QueryNormalizerTest, Deterministic) {
  const char* q = "select * from t where b = 2 and a in (5, 4) and c = 9";
  EXPECT_EQ(NormalizeQuery(q), NormalizeQuery(q));
}

TEST(QueryNormalizerTest, FoldsOnlyAsciiUppercaseForEveryByte) {
  // The same byte mapping as CompressQueryId, pinned independently of
  // the process locale: A-Z fold, every other non-delimiter byte
  // (>= 0x80 included) passes through unchanged.
  const std::string delimiters(" \t\n\r,;()");
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    if (delimiters.find(c) != std::string::npos) continue;
    const std::string expected =
        std::string("x") +
        (c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) + "y";
    EXPECT_EQ(NormalizeQuery(std::string("x") + c + "y"), expected)
        << "byte " << b;
  }
}

TEST(QueryNormalizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_EQ(NormalizeQuery(""), "");
  EXPECT_EQ(NormalizeQuery("   \t\n"), "");
}

}  // namespace
}  // namespace watchman
