// Tests for the kernel op-counter layer (obs/opcount.h): stable names,
// snapshot arithmetic, thread-locality, the per-kernel instrumentation
// contracts (exact cell/hash/emission counts where the algorithm pins
// them), and the per-family surfacing into MetricsRegistry. Every
// counting assertion is guarded on opcount::kEnabled so a Release suite
// without VALENTINE_OPCOUNT still compiles and passes.

#include "obs/opcount.h"

#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/tpcdi.h"
#include "harness/campaign.h"
#include "io/artifact_store.h"
#include "matchers/match_result.h"
#include "obs/metrics.h"
#include "stats/emd.h"
#include "stats/minhash.h"
#include "text/string_similarity.h"

namespace valentine {
namespace {

opcount::Snapshot Delta(const opcount::Snapshot& before) {
  return opcount::ThreadSnapshot().DeltaSince(before);
}

TEST(OpCount, NamesAndOrderAreStable) {
  // These strings are persisted identifiers (BENCH_kernels.json keys,
  // metric label values): renaming one invalidates committed baselines.
  EXPECT_STREQ(opcount::OpName(opcount::Op::kLevenshteinCells),
               "levenshtein_cells");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kBagPrefilterHits),
               "bag_prefilter_hits");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kBagPrefilterMisses),
               "bag_prefilter_misses");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kMinHashHashes),
               "minhash_hashes");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kNGramEmissions),
               "ngram_emissions");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kEmdSweepIterations),
               "emd_sweep_iterations");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kLevenshteinBitParallelSteps),
               "levenshtein_bitparallel_steps");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kRankRefs), "rank_refs");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kRankCells), "rank_cells");
  EXPECT_STREQ(opcount::OpName(opcount::Op::kNameTokenPairs),
               "name_token_pairs");
  const auto& all = opcount::AllOps();
  ASSERT_EQ(all.size(), static_cast<size_t>(opcount::kNumOps));
  for (int i = 0; i < opcount::kNumOps; ++i) {
    EXPECT_EQ(static_cast<int>(all[static_cast<size_t>(i)]), i);
  }
}

TEST(OpCount, SnapshotDeltaArithmetic) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  opcount::Snapshot before = opcount::ThreadSnapshot();
  EXPECT_FALSE(Delta(before).AnyNonZero());
  opcount::Add(opcount::Op::kMinHashHashes, 7);
  opcount::Add(opcount::Op::kMinHashHashes, 3);
  opcount::Add(opcount::Op::kNGramEmissions, 2);
  opcount::Snapshot d = Delta(before);
  EXPECT_TRUE(d.AnyNonZero());
  EXPECT_EQ(d.value(opcount::Op::kMinHashHashes), 10u);
  EXPECT_EQ(d.value(opcount::Op::kNGramEmissions), 2u);
  EXPECT_EQ(d.value(opcount::Op::kLevenshteinCells), 0u);
}

TEST(OpCount, CountersAreThreadLocal) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  opcount::Snapshot before = opcount::ThreadSnapshot();
  std::thread other(
      [] { opcount::Add(opcount::Op::kLevenshteinCells, 1000); });
  other.join();
  // The other thread's adds land in its own slots, never ours.
  EXPECT_EQ(Delta(before).value(opcount::Op::kLevenshteinCells), 0u);
}

TEST(OpCount, LevenshteinFullCountsEveryCell) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  std::string a = "application_identifier";
  std::string b = "applciation_identifeir";
  opcount::Snapshot before = opcount::ThreadSnapshot();
  LevenshteinDistance(a, b);
  EXPECT_EQ(Delta(before).value(opcount::Op::kLevenshteinCells),
            a.size() * b.size());
}

TEST(OpCount, BandedLevenshteinVisitsFewerCells) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  std::string a = "the_full_matrix_walks_every_single_cell_of_this";
  std::string b = "the_full_matrix_walks_every_single_cell_of_that";
  opcount::Snapshot before = opcount::ThreadSnapshot();
  size_t full = LevenshteinDistance(a, b);
  uint64_t full_cells = Delta(before).value(opcount::Op::kLevenshteinCells);
  before = opcount::ThreadSnapshot();
  size_t banded = LevenshteinWithin(a, b, 4);
  uint64_t banded_cells =
      Delta(before).value(opcount::Op::kLevenshteinCells);
  EXPECT_EQ(full, banded);  // same answer within the bound...
  EXPECT_GT(banded_cells, 0u);
  EXPECT_LT(banded_cells, full_cells);  // ...for strictly fewer cells
}

// The ordering core ranks each table's column refs once and sorts one
// key per cell; Sort() ranks the sources and targets of every match.
TEST(OpCount, RankingCountsRefsOnceAndCellsOnce) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  Table source("s"), target("t");
  for (const char* name : {"a", "b", "c"}) {
    Column c(name, DataType::kString);
    c.Append(Value::String("v"));
    ASSERT_TRUE(source.AddColumn(c).ok());
    ASSERT_TRUE(target.AddColumn(std::move(c)).ok());
  }
  opcount::Snapshot before = opcount::ThreadSnapshot();
  MatchResult ranked = MatchResult::Ranked(
      source, target, {ScoredCell(0, 1, 0.5), ScoredCell(2, 2, 0.5)});
  opcount::Snapshot d = Delta(before);
  EXPECT_EQ(d.value(opcount::Op::kRankRefs), 6u);
  EXPECT_EQ(d.value(opcount::Op::kRankCells), 2u);

  before = opcount::ThreadSnapshot();
  ranked.Sort();
  d = Delta(before);
  EXPECT_EQ(d.value(opcount::Op::kRankRefs), 4u);
  EXPECT_EQ(d.value(opcount::Op::kRankCells), 2u);

  // Sort() ranks each distinct ref once: two source refs and three
  // target refs across four matches.
  MatchResult merged;
  merged.Add({"s", "a"}, {"t", "x"}, 0.5);
  merged.Add({"s", "a"}, {"t", "y"}, 0.7);
  merged.Add({"s", "b"}, {"t", "x"}, 0.5);
  merged.Add({"s", "b"}, {"t", "z"}, 0.1);
  before = opcount::ThreadSnapshot();
  merged.Sort();
  d = Delta(before);
  EXPECT_EQ(d.value(opcount::Op::kRankRefs), 5u);
  EXPECT_EQ(d.value(opcount::Op::kRankCells), 4u);
  EXPECT_EQ(merged[0].target.column, "y");
  EXPECT_EQ(merged[3].target.column, "z");
}

TEST(OpCount, BitParallelLevenshteinCountsTextBytes) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  opcount::Snapshot before = opcount::ThreadSnapshot();
  EXPECT_EQ(LevenshteinBitParallel("kitten", "sitting"), 3u);
  opcount::Snapshot d = Delta(before);
  // One step per text byte, and no DP cells.
  EXPECT_EQ(d.value(opcount::Op::kLevenshteinBitParallelSteps), 7u);
  EXPECT_EQ(d.value(opcount::Op::kLevenshteinCells), 0u);

  // A pattern past 64 bytes runs the full DP instead.
  const std::string long_pattern(70, 'q');
  before = opcount::ThreadSnapshot();
  LevenshteinBitParallel(long_pattern, "qq");
  d = Delta(before);
  EXPECT_EQ(d.value(opcount::Op::kLevenshteinBitParallelSteps), 0u);
  EXPECT_EQ(d.value(opcount::Op::kLevenshteinCells), 70u * 2u);
}

TEST(OpCount, CharNGramsCountsEmissions) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  opcount::Snapshot before = opcount::ThreadSnapshot();
  std::vector<std::string> grams = CharNGrams("permit_date", 3);
  EXPECT_EQ(Delta(before).value(opcount::Op::kNGramEmissions),
            grams.size());
}

TEST(OpCount, MinHashCountsHashEvaluations) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  std::unordered_set<std::string> set;
  for (int i = 0; i < 50; ++i) set.insert("v" + std::to_string(i));
  opcount::Snapshot before = opcount::ThreadSnapshot();
  MinHashSignature::Build(set, 32);
  EXPECT_EQ(Delta(before).value(opcount::Op::kMinHashHashes),
            set.size() * 32);
}

TEST(OpCount, DiscoveryArtifactSketchesEachColumnOnce) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  const Table t = MakeTpcdiProspect(60, 7);
  constexpr size_t kSetCap = 5;
  size_t distinct = 0;
  size_t capped_builds = 0;  // hashed values under a set_cap of kSetCap
  for (const Column& c : t.columns()) {
    const size_t d = c.DistinctStringSet().size();
    distinct += d;
    capped_builds += d <= kSetCap ? d : kSetCap + d;
  }
  ASSERT_GT(capped_builds, distinct);  // some column exceeds the cap

  // The profile's MinHash covers the whole set at the sketch's width,
  // so it is the column sketch: one build per column, profiled or not.
  opcount::Snapshot before = opcount::ThreadSnapshot();
  BuildDiscoveryArtifact(t, 128, /*with_profiles=*/true);
  EXPECT_EQ(Delta(before).value(opcount::Op::kMinHashHashes), distinct * 128);
  before = opcount::ThreadSnapshot();
  BuildDiscoveryArtifact(t, 128, /*with_profiles=*/false);
  EXPECT_EQ(Delta(before).value(opcount::Op::kMinHashHashes), distinct * 128);

  // A profile capped below a column's distinct count hashed only a
  // prefix, so every column is sketched again in full.
  ProfileSpec spec;
  spec.set_cap = kSetCap;
  before = opcount::ThreadSnapshot();
  BuildDiscoveryArtifact(t, 128, /*with_profiles=*/true, spec);
  EXPECT_EQ(Delta(before).value(opcount::Op::kMinHashHashes),
            capped_builds * 128);
}

TEST(OpCount, EmdCountsSweepIterations) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  std::vector<MassPoint> a = {{0.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}};
  std::vector<MassPoint> b = {{0.5, 2.0}, {1.5, 1.0}};
  opcount::Snapshot before = opcount::ThreadSnapshot();
  EmdPointMasses(a, b);
  // One sweep position per merged-support point.
  EXPECT_EQ(Delta(before).value(opcount::Op::kEmdSweepIterations),
            a.size() + b.size());
}

TEST(OpCount, FuzzyJaccardBandedUsesThePrefilter) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  // Disjoint token lists: every pair reaches the leftover stage, where
  // the folded bag bound either prunes (hit) or forwards to the
  // bit-parallel kernel (miss).
  std::vector<std::string> a = {"alpha", "bravo", "charlie", "delta"};
  std::vector<std::string> b = {"echo", "foxtrot", "golf", "hotel"};
  opcount::Snapshot before = opcount::ThreadSnapshot();
  FuzzyJaccard(a, b, 0.3, LevenshteinKernel::kBanded);
  opcount::Snapshot d = Delta(before);
  EXPECT_GT(d.value(opcount::Op::kBagPrefilterHits) +
                d.value(opcount::Op::kBagPrefilterMisses),
            0u);

  // The naive kernel bypasses the prefilter entirely.
  before = opcount::ThreadSnapshot();
  FuzzyJaccard(a, b, 0.3, LevenshteinKernel::kNaive);
  d = Delta(before);
  EXPECT_EQ(d.value(opcount::Op::kBagPrefilterHits), 0u);
  EXPECT_EQ(d.value(opcount::Op::kBagPrefilterMisses), 0u);
  EXPECT_EQ(d.value(opcount::Op::kLevenshteinBitParallelSteps), 0u);
  EXPECT_GT(d.value(opcount::Op::kLevenshteinCells), 0u);
}

TEST(OpCount, CampaignSurfacesPerFamilyCounters) {
  if (!opcount::kEnabled) GTEST_SKIP() << "opcounts compiled out";
  // The harness brackets each experiment with thread snapshots and
  // folds the deltas into valentine_opcount_total{family,op} — visible
  // in /metrics and campaign exports, never in report bytes.
  MetricsRegistry metrics;
  CampaignOptions opt;
  opt.suite.row_overlaps = {0.5};
  opt.suite.column_overlaps = {0.5};
  opt.suite.schema_noise_variants = false;
  opt.suite.instance_noise_variants = false;
  opt.num_threads = 2;
  opt.metrics = &metrics;
  std::vector<Table> sources = {MakeTpcdiProspect(40, 85)};
  RunCampaign(sources, {JaccardLevenshteinFamily()}, opt);

  bool found = false;
  for (const MetricsRegistry::CounterSample& sample :
       metrics.CounterSamples()) {
    if (sample.name != "valentine_opcount_total") continue;
    bool has_family = false, has_op = false;
    for (const auto& [key, value] : sample.labels) {
      if (key == "family") has_family = value == "JaccardLevenshtein";
      if (key == "op") has_op = !value.empty();
    }
    if (has_family && has_op && sample.value > 0) found = true;
  }
  EXPECT_TRUE(found)
      << "no valentine_opcount_total{family=JaccardLevenshtein,op=...} "
         "counter surfaced";
}

}  // namespace
}  // namespace valentine
