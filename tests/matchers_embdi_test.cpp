#include "matchers/embdi.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "metrics/metrics.h"

namespace valentine {
namespace {

EmbdiOptions FastOptions() {
  EmbdiOptions o;
  o.max_rows = 60;
  o.walks_per_node = 2;
  o.sentence_length = 15;
  o.dimensions = 24;
  o.epochs = 3;
  o.seed = 77;
  return o;
}

Table MakeOverlappingTable(const std::string& name,
                           const std::vector<std::string>& col_names,
                           uint64_t seed) {
  // Columns draw from per-concept pools so value nodes bridge tables.
  Rng rng(seed);
  Table t(name);
  for (size_t c = 0; c < col_names.size(); ++c) {
    Column col(col_names[c], DataType::kString);
    for (int r = 0; r < 60; ++r) {
      col.Append(Value::String("pool" + std::to_string(c) + "_" +
                               std::to_string(rng.Index(12))));
    }
    EXPECT_TRUE(t.AddColumn(std::move(col)).ok());
  }
  return t;
}

TEST(EmbdiTest, ProducesFullRanking) {
  Table src = MakeOverlappingTable("s", {"a", "b"}, 1);
  Table tgt = MakeOverlappingTable("t", {"x", "y"}, 2);
  MatchResult r = EmbdiMatcher(FastOptions()).Match(src, tgt);
  EXPECT_EQ(r.size(), 4u);
}

TEST(EmbdiTest, SharedValuesPullColumnsTogether) {
  // src.a and tgt.x share pool0, src.b and tgt.y share pool1: the
  // correct pairing should get a higher total score than the crossing.
  Table src = MakeOverlappingTable("s", {"a", "b"}, 3);
  Table tgt = MakeOverlappingTable("t", {"x", "y"}, 4);
  MatchResult r = EmbdiMatcher(FastOptions()).Match(src, tgt);
  double correct = 0.0;
  double crossed = 0.0;
  for (const Match& m : r.matches()) {
    bool is_correct = (m.source.column == "a" && m.target.column == "x") ||
                      (m.source.column == "b" && m.target.column == "y");
    (is_correct ? correct : crossed) += m.score;
  }
  EXPECT_GT(correct, crossed);
}

TEST(EmbdiTest, DeterministicUnderSeed) {
  Table src = MakeOverlappingTable("s", {"a", "b"}, 5);
  Table tgt = MakeOverlappingTable("t", {"x", "y"}, 6);
  EmbdiMatcher m1(FastOptions());
  EmbdiMatcher m2(FastOptions());
  MatchResult r1 = m1.Match(src, tgt);
  MatchResult r2 = m2.Match(src, tgt);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1[i].score, r2[i].score);
  }
}

TEST(EmbdiTest, SeedChangesEmbeddings) {
  // The paper attributes EmbDI's inconsistency to training randomness;
  // different seeds must be able to produce different scores.
  Table src = MakeOverlappingTable("s", {"a", "b"}, 7);
  Table tgt = MakeOverlappingTable("t", {"x", "y"}, 8);
  EmbdiOptions o1 = FastOptions();
  EmbdiOptions o2 = FastOptions();
  o2.seed = o1.seed + 1;
  MatchResult r1 = EmbdiMatcher(o1).Match(src, tgt);
  MatchResult r2 = EmbdiMatcher(o2).Match(src, tgt);
  bool any_diff = false;
  for (size_t i = 0; i < r1.size(); ++i) {
    if (r1[i].score != r2[i].score) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(EmbdiTest, HandlesNullCells) {
  Table src("s");
  Column a("a", DataType::kString);
  for (int i = 0; i < 20; ++i) {
    a.Append(i % 3 == 0 ? Value::Null()
                        : Value::String(std::string("v").append(
                              std::to_string(i % 5))));
  }
  ASSERT_TRUE(src.AddColumn(std::move(a)).ok());
  Table tgt = src;
  tgt.set_name("t");
  MatchResult r = EmbdiMatcher(FastOptions()).Match(src, tgt);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_GT(r[0].score, 0.0);
}

TEST(EmbdiTest, RowCapRespected) {
  EmbdiOptions o = FastOptions();
  o.max_rows = 5;  // tiny graph still works
  Table src = MakeOverlappingTable("s", {"a"}, 9);
  Table tgt = MakeOverlappingTable("t", {"x"}, 10);
  MatchResult r = EmbdiMatcher(o).Match(src, tgt);
  EXPECT_EQ(r.size(), 1u);
}

TEST(EmbdiTest, MetadataDeclared) {
  EmbdiMatcher m;
  EXPECT_EQ(m.Name(), "EmbDI");
  EXPECT_EQ(m.Category(), MatcherCategory::kHybrid);
  ASSERT_EQ(m.Capabilities().size(), 1u);
  EXPECT_EQ(m.Capabilities()[0], MatchType::kEmbeddings);
}

}  // namespace
}  // namespace valentine
