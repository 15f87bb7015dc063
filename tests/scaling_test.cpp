// Tests for the scaling module: Lazo coupled estimation and the
// approximate overlap matcher with its LSH band pruning (paper §IX's
// "approximations for better scaling").

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "datasets/tpcdi.h"
#include "fabrication/fabricator.h"
#include "matchers/jaccard_levenshtein.h"
#include "metrics/metrics.h"
#include "scaling/approximate_matcher.h"
#include "text/string_similarity.h"

namespace valentine {
namespace {

std::unordered_set<std::string> MakeSet(int lo, int hi) {
  std::unordered_set<std::string> s;
  for (int i = lo; i < hi; ++i) s.insert("item_" + std::to_string(i));
  return s;
}

/// A table whose column (name, lo, hi) holds MakeSet(lo, hi)'s values,
/// padded with nulls to the longest column; lo == hi is all-null.
Table MakeTable(const std::string& name,
                const std::vector<std::tuple<std::string, int, int>>& spec) {
  int rows = 1;
  for (const auto& [column, lo, hi] : spec) rows = std::max(rows, hi - lo);
  Table table(name);
  for (const auto& [column_name, lo, hi] : spec) {
    Column column(column_name, DataType::kString);
    for (int i = lo; i < lo + rows; ++i) {
      column.Append(i < hi ? Value::String("item_" + std::to_string(i))
                           : Value::Null());
    }
    EXPECT_TRUE(table.AddColumn(std::move(column)).ok());
  }
  return table;
}

TEST(LazoTest, IdenticalSets) {
  auto sketch = LazoSketch::Build(MakeSet(0, 500), 128);
  LazoEstimate est = EstimateLazo(sketch, sketch);
  EXPECT_DOUBLE_EQ(est.jaccard, 1.0);
  EXPECT_NEAR(est.containment_a_in_b, 1.0, 1e-9);
  EXPECT_NEAR(est.intersection_size, 500.0, 1e-6);
}

TEST(LazoTest, DisjointSets) {
  auto a = LazoSketch::Build(MakeSet(0, 300), 128);
  auto b = LazoSketch::Build(MakeSet(1000, 1300), 128);
  LazoEstimate est = EstimateLazo(a, b);
  EXPECT_LT(est.jaccard, 0.05);
  EXPECT_LT(est.containment_a_in_b, 0.1);
}

TEST(LazoTest, AsymmetricContainment) {
  // A (100 items) fully contained in B (1000 items).
  auto a = LazoSketch::Build(MakeSet(0, 100), 256);
  auto b = LazoSketch::Build(MakeSet(0, 1000), 256);
  LazoEstimate est = EstimateLazo(a, b);
  // True J = 0.1, C(A in B) = 1.0, C(B in A) = 0.1.
  EXPECT_NEAR(est.jaccard, 0.1, 0.05);
  EXPECT_GT(est.containment_a_in_b, 0.6);
  EXPECT_LT(est.containment_b_in_a, 0.2);
}

TEST(LazoTest, EstimatesTrackTruthAcrossOverlaps) {
  for (int overlap : {50, 100, 150}) {
    auto sa = MakeSet(0, 200);
    auto sb = MakeSet(200 - overlap, 400 - overlap);
    double truth = JaccardSimilarity(sa, sb);
    LazoEstimate est = EstimateLazo(LazoSketch::Build(sa, 256),
                                    LazoSketch::Build(sb, 256));
    EXPECT_NEAR(est.jaccard, truth, 0.1) << overlap;
    double true_containment = Containment(sa, sb);
    EXPECT_NEAR(est.containment_a_in_b, true_containment, 0.15) << overlap;
  }
}

TEST(LazoTest, EmptySets) {
  auto empty = LazoSketch::Build({}, 64);
  auto full = LazoSketch::Build(MakeSet(0, 10), 64);
  EXPECT_DOUBLE_EQ(EstimateLazo(empty, empty).jaccard, 1.0);
  EXPECT_DOUBLE_EQ(EstimateLazo(empty, full).jaccard, 0.0);
  EXPECT_DOUBLE_EQ(EstimateLazo(empty, full).containment_a_in_b, 0.0);
}

TEST(LazoTest, IntersectionCappedBySmallerSet) {
  auto a = LazoSketch::Build(MakeSet(0, 10), 64);
  auto b = LazoSketch::Build(MakeSet(0, 10000), 64);
  LazoEstimate est = EstimateLazo(a, b);
  EXPECT_LE(est.intersection_size, 10.0);
  EXPECT_LE(est.containment_a_in_b, 1.0);
}

TEST(ApproximateMatcherTest, AgreesWithExactOnEasyPair) {
  Table original = MakeTpcdiProspect(200, 51);
  FabricationOptions fab;
  fab.scenario = Scenario::kJoinable;
  fab.column_overlap = 0.5;
  fab.seed = 9;
  DatasetPair pair = FabricateDatasetPair(original, fab).ValueOrDie();

  ApproximateOverlapOptions opt;
  opt.estimate_all_pairs = true;
  ApproximateOverlapMatcher approx(opt);
  double approx_recall = RecallAtGroundTruth(
      approx.Match(pair.source, pair.target), pair.ground_truth);

  JaccardLevenshteinOptions exact_opt;
  exact_opt.threshold = 0.0;
  exact_opt.max_distinct_values = 0;
  JaccardLevenshteinMatcher exact(exact_opt);
  double exact_recall = RecallAtGroundTruth(
      exact.Match(pair.source, pair.target), pair.ground_truth);

  EXPECT_GE(approx_recall, exact_recall - 0.15);
  EXPECT_GE(approx_recall, 0.8);
}

TEST(ApproximateMatcherTest, LshPruningStillFindsStrongMatches) {
  Table original = MakeTpcdiProspect(200, 52);
  FabricationOptions fab;
  fab.scenario = Scenario::kUnionable;
  fab.row_overlap = 0.8;
  fab.seed = 10;
  DatasetPair pair = FabricateDatasetPair(original, fab).ValueOrDie();

  ApproximateOverlapOptions opt;  // LSH pruning on
  ApproximateOverlapMatcher approx(opt);
  double recall = RecallAtGroundTruth(
      approx.Match(pair.source, pair.target), pair.ground_truth);
  EXPECT_GE(recall, 0.6);
}

TEST(ApproximateMatcherTest, MinJaccardFilters) {
  Table src("s");
  Column a("a", DataType::kString);
  for (int i = 0; i < 50; ++i) a.Append(Value::Int(i));
  ASSERT_TRUE(src.AddColumn(std::move(a)).ok());
  Table tgt("t");
  Column b("b", DataType::kString);
  for (int i = 1000; i < 1050; ++i) b.Append(Value::Int(i));
  ASSERT_TRUE(tgt.AddColumn(std::move(b)).ok());
  ApproximateOverlapOptions opt;
  opt.min_jaccard = 0.5;
  opt.estimate_all_pairs = true;
  EXPECT_TRUE(ApproximateOverlapMatcher(opt).Match(src, tgt).empty());
}

TEST(ApproximateMatcherTest, FindsNearDuplicates) {
  const Table source = MakeTable("s", {{"q", 0, 500}});
  const Table target = MakeTable(
      "t", {{"far", 5000, 5500}, {"half", 250, 750}, {"dup", 0, 500}});
  ApproximateOverlapOptions opt;
  opt.min_jaccard = 0.5;
  MatchResult result = ApproximateOverlapMatcher(opt).Match(source, target);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].target.column, "dup");
  EXPECT_GT(result[0].score, 0.9);
}

TEST(ApproximateMatcherTest, PrunesDisjointColumns) {
  std::vector<std::tuple<std::string, int, int>> spec;
  for (int k = 0; k < 50; ++k) {
    spec.emplace_back("set" + std::to_string(k), k * 1000, k * 1000 + 400);
  }
  const Table source = MakeTable("s", {{"q", 0, 400}});
  const Table target = MakeTable("t", spec);
  ApproximateOverlapOptions opt;  // min_jaccard 0: every candidate ranks
  MatchResult pruned = ApproximateOverlapMatcher(opt).Match(source, target);
  ASSERT_FALSE(pruned.empty());
  EXPECT_LT(pruned.size(), 10u);
  EXPECT_EQ(pruned[0].target.column, "set0");
  opt.estimate_all_pairs = true;
  EXPECT_EQ(ApproximateOverlapMatcher(opt).Match(source, target).size(), 50u);
}

// An empty set leaves every signature slot at the UINT64_MAX sentinel,
// so two empty columns agree on every band; they must still never be
// candidates.
TEST(ApproximateMatcherTest, EmptyColumnsNeverMatch) {
  const Table source =
      MakeTable("s", {{"empty_q", 0, 0}, {"full_q", 0, 100}});
  const Table target = MakeTable(
      "t", {{"empty_a", 0, 0}, {"empty_b", 0, 0}, {"full", 0, 100}});
  MatchResult result = ApproximateOverlapMatcher().Match(source, target);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].source.column, "full_q");
  EXPECT_EQ(result[0].target.column, "full");
}

// Lazo's convention gives two empty sets Jaccard 1.0, which would rank
// two all-null columns as a perfect match when every pair is estimated;
// a cell with an empty side scores 0.
TEST(ApproximateMatcherTest, AllPairsScoresEmptyColumnsZero) {
  const Table source = MakeTable("s", {{"empty_q", 0, 0}, {"q", 0, 100}});
  const Table target = MakeTable("t", {{"empty", 0, 0}, {"full", 0, 100}});
  ApproximateOverlapOptions opt;
  opt.estimate_all_pairs = true;
  MatchResult result = ApproximateOverlapMatcher(opt).Match(source, target);
  ASSERT_EQ(result.size(), 4u);
  EXPECT_EQ(result[0].source.column, "q");
  EXPECT_EQ(result[0].target.column, "full");
  EXPECT_DOUBLE_EQ(result[0].score, 1.0);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_EQ(result[i].score, 0.0) << result[i].source.column << " > "
                                    << result[i].target.column;
  }
}

// The pruned path matches a repeated target name at its first column
// only, so "b", whose values only the second "k" holds, matches nothing.
TEST(ApproximateMatcherTest, RepeatedTargetNameMatchesAtItsFirstColumn) {
  const Table source = MakeTable("s", {{"a", 0, 500}, {"b", 5000, 5500}});
  const Table target = MakeTable("t", {{"k", 0, 500}, {"k", 5000, 5500}});
  ApproximateOverlapOptions opt;
  opt.min_jaccard = 0.5;
  MatchResult result = ApproximateOverlapMatcher(opt).Match(source, target);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].source.column, "a");
  EXPECT_EQ(result[0].target.column, "k");
  EXPECT_GT(result[0].score, 0.9);
}

TEST(ApproximateMatcherTest, MetadataDeclared) {
  ApproximateOverlapMatcher m;
  EXPECT_EQ(m.Name(), "ApproxOverlap");
  EXPECT_EQ(m.Category(), MatcherCategory::kInstanceBased);
}

}  // namespace
}  // namespace valentine
