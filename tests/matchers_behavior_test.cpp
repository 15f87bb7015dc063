// Parameter-semantics tests: each matcher's knobs must move its
// behaviour in the documented direction (monotonicity, gating, budget
// effects) — the properties the Table II grid search relies on.

#include <gtest/gtest.h>

#include "core/rng.h"
#include "datasets/tpcdi.h"
#include "fabrication/fabricator.h"
#include "matchers/cupid.h"
#include "matchers/distribution_based.h"
#include "matchers/embdi.h"
#include "matchers/jaccard_levenshtein.h"
#include "matchers/semprop.h"
#include "matchers/similarity_flooding.h"
#include "metrics/metrics.h"
#include "text/string_similarity.h"

namespace valentine {
namespace {

TEST(FuzzyJaccardPropertyTest, MonotoneInThreshold) {
  // On this corpus the fuzzy Jaccard score is non-decreasing in the
  // threshold. That is not true in general: greedy first-fit can spend
  // a looser threshold on an earlier, worse pairing (see
  // GreedyFirstFitOrderIsPinned).
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::string> a, b;
    for (int i = 0; i < 40; ++i) {
      a.push_back("value_" + std::to_string(rng.Index(60)));
      b.push_back("valeu_" + std::to_string(rng.Index(60)));
    }
    double prev = -1.0;
    for (double th : {0.0, 0.2, 0.4, 0.6, 0.8}) {
      double score = FuzzyJaccard(a, b, th);
      EXPECT_GE(score, prev) << "trial " << trial << " th " << th;
      prev = score;
    }
  }
}

TEST(FuzzyJaccardPropertyTest, GreedyFirstFitOrderIsPinned) {
  // Each `a` leftover, in input order, takes the first unused `b`
  // leftover, in input order, within the threshold. At 0.25 "abcd"
  // skips "abxy" (distance 2 of 4) for "abce" and "qbxy" takes "abxy":
  // 2 matches. At 0.5 "abcd" takes "abxy" first and "qbxy" has nothing
  // left within 0.5 of it ("abce" is 3 edits away): 1 match, 1/3. A
  // kernel that reorders leftovers changes these scores even while its
  // banded and naive paths still agree.
  const std::vector<std::string> a = {"abcd", "qbxy"};
  const std::vector<std::string> b = {"abxy", "abce"};
  for (LevenshteinKernel kernel :
       {LevenshteinKernel::kBanded, LevenshteinKernel::kNaive}) {
    EXPECT_EQ(FuzzyJaccard(a, b, 0.25, kernel), 1.0);
    EXPECT_EQ(FuzzyJaccard(a, b, 0.5, kernel), 1.0 / 3.0);
  }
}

TEST(CupidBehaviorTest, ThresholdAcceptGatesReinforcement) {
  // th_accept controls the strong-link count that drives the ancestor
  // bonus; an impossible threshold must not *raise* scores.
  Table src("customers");
  Table tgt("customers_b");
  for (const char* name : {"income", "city"}) {
    Column cs(name, DataType::kString);
    cs.Append(Value::String("v"));
    (void)src.AddColumn(std::move(cs));
    Column ct(name, DataType::kString);
    ct.Append(Value::String("v"));
    (void)tgt.AddColumn(std::move(ct));
  }
  CupidOptions lenient;
  lenient.th_accept = 0.3;
  CupidOptions impossible;
  impossible.th_accept = 0.999;
  double lenient_score = CupidMatcher(lenient).Match(src, tgt)[0].score;
  double strict_score = CupidMatcher(impossible).Match(src, tgt)[0].score;
  EXPECT_GE(lenient_score, strict_score);
}

TEST(SimilarityFloodingBehaviorTest, EpsilonControlsConvergence) {
  // A gigantic epsilon stops after one iteration; results still form a
  // valid ranking and identical names still win on identical schemata.
  Table src("s");
  Table tgt("t");
  for (const char* name : {"alpha", "beta"}) {
    Column cs(name, DataType::kInt64);
    cs.Append(Value::Int(1));
    (void)src.AddColumn(std::move(cs));
    Column ct(name, DataType::kInt64);
    ct.Append(Value::Int(1));
    (void)tgt.AddColumn(std::move(ct));
  }
  SimilarityFloodingOptions one_step;
  one_step.epsilon = 1e9;
  MatchResult r = SimilarityFloodingMatcher(one_step).Match(src, tgt);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0].source.column, r[0].target.column);
}

TEST(DistributionBehaviorTest, MoreBinsRefineButStayConsistent) {
  Rng rng(7);
  std::vector<int64_t> values;
  for (int i = 0; i < 400; ++i) values.push_back(rng.UniformInt(0, 500));
  auto table_with = [&](const std::string& name) {
    Table t(name);
    Column c("col", DataType::kInt64);
    for (int64_t v : values) c.Append(Value::Int(v));
    (void)t.AddColumn(std::move(c));
    return t;
  };
  Table src = table_with("s");
  Table tgt = table_with("t");
  for (size_t bins : {4u, 16u, 64u}) {
    DistributionBasedOptions opt;
    opt.num_bins = bins;
    MatchResult r = DistributionBasedMatcher(opt).Match(src, tgt);
    ASSERT_EQ(r.size(), 1u) << bins;
    EXPECT_GT(r[0].score, 0.9) << bins;
  }
}

TEST(DistributionBehaviorTest, TighterPhase1PrunesMore) {
  Rng rng(8);
  // Slightly shifted distributions: strict thresholds cut them apart.
  std::vector<int64_t> a, b;
  for (int i = 0; i < 300; ++i) {
    int64_t v = rng.UniformInt(0, 1000);
    a.push_back(v);
    b.push_back(v + 120);
  }
  Table src("s"), tgt("t");
  Column ca("x", DataType::kInt64);
  for (int64_t v : a) ca.Append(Value::Int(v));
  (void)src.AddColumn(std::move(ca));
  Column cb("y", DataType::kInt64);
  for (int64_t v : b) cb.Append(Value::Int(v));
  (void)tgt.AddColumn(std::move(cb));

  size_t prev = 100;
  for (double th : {0.5, 0.1, 0.01}) {
    DistributionBasedOptions opt;
    opt.phase1_threshold = th;
    opt.phase2_threshold = 0.5;
    size_t n = DistributionBasedMatcher(opt).Match(src, tgt).size();
    EXPECT_LE(n, prev) << th;
    prev = n;
  }
}

TEST(SemPropBehaviorTest, ClassDistanceWidensSemanticMatches) {
  Ontology o;
  size_t root = o.AddClass("root", {"entity"});
  size_t organism = o.AddSubclass(root, "organism", {"organism"});
  o.AddSubclass(organism, "strain", {"strain"});
  auto table_with = [](const std::string& table, const std::string& col,
                       const std::string& value_prefix) {
    Table t(table);
    Column c(col, DataType::kString);
    c.Append(Value::String(value_prefix + "1"));
    c.Append(Value::String(value_prefix + "2"));
    (void)t.AddColumn(std::move(c));
    return t;
  };
  // organism links to class 1, strain to class 2: hierarchy distance 1.
  // Disjoint values keep the syntactic fallback out of the picture.
  Table src = table_with("s", "organism", "left");
  Table tgt = table_with("t", "strain", "right");
  SemPropOptions narrow;
  narrow.max_class_distance = 0;
  narrow.coherent_group_threshold = 0.0;
  narrow.minhash_threshold = 0.99;
  SemPropOptions wide = narrow;
  wide.max_class_distance = 2;
  size_t n_narrow = SemPropMatcher(&o, narrow).Match(src, tgt).size();
  size_t n_wide = SemPropMatcher(&o, wide).Match(src, tgt).size();
  EXPECT_EQ(n_narrow, 0u);
  EXPECT_EQ(n_wide, 1u);
}

TEST(EmbdiBehaviorTest, LongerWalksNeverCrash) {
  Table src("s"), tgt("t");
  Column cs("a", DataType::kString);
  Column ct("b", DataType::kString);
  for (int i = 0; i < 30; ++i) {
    cs.Append(Value::String(std::string("x").append(std::to_string(i % 6))));
    ct.Append(Value::String(std::string("x").append(std::to_string(i % 6))));
  }
  (void)src.AddColumn(std::move(cs));
  (void)tgt.AddColumn(std::move(ct));
  for (size_t len : {2u, 10u, 60u}) {
    EmbdiOptions o;
    o.sentence_length = len;
    o.walks_per_node = 1;
    o.dimensions = 8;
    o.epochs = 1;
    MatchResult r = EmbdiMatcher(o).Match(src, tgt);
    EXPECT_EQ(r.size(), 1u) << len;
  }
}

TEST(JaccardLevBehaviorTest, RecallTracksNoiseLevel) {
  // One fabricated pair per noise regime: strict-equality JL loses
  // recall as instance noise rises (the Fig. 5 panel mechanism).
  Table original = MakeTpcdiProspect(120, 91);
  auto recall_with_noise = [&](bool noisy) {
    FabricationOptions fab;
    fab.scenario = Scenario::kUnionable;
    fab.row_overlap = 0.5;
    fab.noisy_instances = noisy;
    fab.seed = 17;
    DatasetPair p = FabricateDatasetPair(original, fab).ValueOrDie();
    JaccardLevenshteinOptions o;
    o.threshold = 0.0;
    o.max_distinct_values = 100;
    return RecallAtGroundTruth(
        JaccardLevenshteinMatcher(o).Match(p.source, p.target),
        p.ground_truth);
  };
  EXPECT_GE(recall_with_noise(false), recall_with_noise(true));
}

}  // namespace
}  // namespace valentine
