#include "matchers/cupid.h"

#include <gtest/gtest.h>

namespace valentine {
namespace {

Table MakeTable(const std::string& name,
                std::vector<std::pair<std::string, DataType>> cols) {
  Table t(name);
  for (auto& [col_name, type] : cols) {
    Column c(col_name, type);
    c.Append(Value::String("v"));
    EXPECT_TRUE(t.AddColumn(std::move(c)).ok());
  }
  return t;
}

TEST(CupidTest, IdenticalNamesScoreHighest) {
  Table src = MakeTable("a", {{"income", DataType::kInt64},
                              {"city", DataType::kString}});
  Table tgt = MakeTable("b", {{"income", DataType::kInt64},
                              {"city", DataType::kString}});
  CupidMatcher m;
  MatchResult r = m.Match(src, tgt);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_TRUE((r[0].source.column == "income" &&
               r[0].target.column == "income") ||
              (r[0].source.column == "city" && r[0].target.column == "city"));
  EXPECT_GT(r[0].score, 0.9);
}

TEST(CupidTest, SynonymsOutrankUnrelated) {
  Table src = MakeTable("a", {{"income", DataType::kInt64},
                              {"country", DataType::kString}});
  Table tgt = MakeTable("b", {{"salary", DataType::kInt64},
                              {"genre", DataType::kString}});
  CupidMatcher m;
  MatchResult r = m.Match(src, tgt);
  EXPECT_EQ(r[0].source.column, "income");
  EXPECT_EQ(r[0].target.column, "salary");
}

TEST(CupidTest, AbbreviationExpansionWorks) {
  double sim = CupidMatcher().LinguisticSimilarity("dob", "birthdate");
  EXPECT_GT(sim, 0.9);
}

TEST(CupidTest, LinguisticSimilarityRepeats) {
  CupidMatcher m;
  double s1 = m.LinguisticSimilarity("customer_name", "client_name");
  double s2 = m.LinguisticSimilarity("customer_name", "client_name");
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_GT(s1, 0.8);  // customer/client synonyms, name/name equal
}

TEST(CupidTest, LinguisticSimilarityIsSymmetric) {
  CupidMatcher m;
  double ab = m.LinguisticSimilarity("alpha_beta", "beta");
  double ba = m.LinguisticSimilarity("beta", "alpha_beta");
  EXPECT_DOUBLE_EQ(ab, ba);  // the measure itself is symmetric
}

TEST(CupidTest, TypeCompatibility) {
  EXPECT_DOUBLE_EQ(CupidMatcher::TypeCompatibility(DataType::kInt64,
                                                   DataType::kInt64),
                   1.0);
  EXPECT_DOUBLE_EQ(CupidMatcher::TypeCompatibility(DataType::kInt64,
                                                   DataType::kFloat64),
                   0.8);
  EXPECT_DOUBLE_EQ(CupidMatcher::TypeCompatibility(DataType::kInt64,
                                                   DataType::kString),
                   0.4);
}

TEST(CupidTest, StructuralWeightChangesScores) {
  Table src = MakeTable("a", {{"count", DataType::kInt64}});
  Table tgt = MakeTable("b", {{"total", DataType::kInt64}});
  CupidOptions low;
  low.leaf_w_struct = 0.0;
  CupidOptions high;
  high.leaf_w_struct = 0.6;
  double score_low = CupidMatcher(low).Match(src, tgt)[0].score;
  double score_high = CupidMatcher(high).Match(src, tgt)[0].score;
  // With identical types, more structural weight raises the score of a
  // linguistically weak pair.
  EXPECT_GT(score_high, score_low);
}

TEST(CupidTest, EmptyNamesHandled) {
  EXPECT_DOUBLE_EQ(CupidMatcher().LinguisticSimilarity("", "x"), 0.0);
  EXPECT_DOUBLE_EQ(CupidMatcher().LinguisticSimilarity("", ""), 0.0);
}

TEST(CupidTest, RanksAllPairs) {
  Table src = MakeTable("a", {{"x", DataType::kInt64},
                              {"y", DataType::kString},
                              {"z", DataType::kFloat64}});
  Table tgt = MakeTable("b", {{"p", DataType::kInt64},
                              {"q", DataType::kString}});
  MatchResult r = CupidMatcher().Match(src, tgt);
  EXPECT_EQ(r.size(), 6u);
}

TEST(CupidTest, MetadataDeclared) {
  CupidMatcher m;
  EXPECT_EQ(m.Name(), "Cupid");
  EXPECT_EQ(m.Category(), MatcherCategory::kSchemaBased);
}

// Parameter sweep: scores stay in [0, 1] over the Table II grid.
class CupidGridTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(CupidGridTest, ScoresBounded) {
  auto [leaf_w, w, th] = GetParam();
  CupidOptions opt;
  opt.leaf_w_struct = leaf_w;
  opt.w_struct = w;
  opt.th_accept = th;
  Table src = MakeTable("a", {{"income", DataType::kInt64},
                              {"cty", DataType::kString}});
  Table tgt = MakeTable("b", {{"salary", DataType::kFloat64},
                              {"city", DataType::kString}});
  MatchResult r = CupidMatcher(opt).Match(src, tgt);
  for (const Match& m : r.matches()) {
    EXPECT_GE(m.score, 0.0);
    EXPECT_LE(m.score, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableIIGrid, CupidGridTest,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.4, 0.6),
                       ::testing::Values(0.0, 0.2, 0.4, 0.6),
                       ::testing::Values(0.3, 0.5, 0.8)));

}  // namespace
}  // namespace valentine
