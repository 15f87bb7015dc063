#include "harness/campaign.h"

#include <gtest/gtest.h>

#include "datasets/tpcdi.h"
#include "harness/json_export.h"
#include "io/csv.h"
#include "matchers/fault_injection.h"
#include "obs/metrics.h"

#include <cstdio>
#include <filesystem>
#include <functional>

namespace valentine {
namespace {

CampaignOptions SmallCampaign() {
  CampaignOptions opt;
  opt.suite.row_overlaps = {0.5};
  opt.suite.column_overlaps = {0.5};
  opt.suite.schema_noise_variants = false;
  opt.suite.instance_noise_variants = false;
  opt.num_threads = 2;
  return opt;
}

TEST(CampaignTest, RunsAllFamiliesAndAccounts) {
  std::vector<Table> sources = {MakeTpcdiProspect(50, 81)};
  std::vector<MethodFamily> families = {SimilarityFloodingFamily(),
                                        JaccardLevenshteinFamily()};
  CampaignReport report = RunCampaign(sources, families, SmallCampaign());
  EXPECT_EQ(report.num_pairs, 6u);
  EXPECT_EQ(report.num_configurations, 6u);  // 1 SF + 5 JL
  EXPECT_EQ(report.num_experiments, 36u);
  ASSERT_EQ(report.families.size(), 2u);
  for (const auto& fr : report.families) {
    EXPECT_EQ(fr.outcomes.size(), 6u);
    EXPECT_FALSE(fr.by_scenario.empty());
    EXPECT_GT(fr.avg_runtime_ms, 0.0);
  }
}

TEST(CampaignTest, FamilyFilterRestricts) {
  std::vector<Table> sources = {MakeTpcdiProspect(40, 82)};
  std::vector<MethodFamily> families = {SimilarityFloodingFamily(),
                                        JaccardLevenshteinFamily()};
  CampaignOptions opt = SmallCampaign();
  opt.family_filter = {"SimilarityFlooding"};
  CampaignReport report = RunCampaign(sources, families, opt);
  ASSERT_EQ(report.families.size(), 1u);
  EXPECT_EQ(report.families[0].family, "SimilarityFlooding");
  EXPECT_EQ(report.num_configurations, 1u);
}

TEST(CampaignTest, MultipleSourcesConcatenateSuites) {
  std::vector<Table> sources = {MakeTpcdiProspect(40, 83),
                                MakeTpcdiProspect(40, 84)};
  CampaignReport report = RunCampaign(
      sources, {SimilarityFloodingFamily()}, SmallCampaign());
  EXPECT_EQ(report.num_pairs, 12u);
}

TEST(CampaignTest, EmptySuiteSafe) {
  CampaignReport report =
      RunCampaignOnSuite({}, {SimilarityFloodingFamily()}, {});
  EXPECT_EQ(report.num_pairs, 0u);
  ASSERT_EQ(report.families.size(), 1u);
  EXPECT_TRUE(report.families[0].outcomes.empty());
}

TEST(CampaignTest, EmptyFamilyListYieldsEmptyDeterministicReport) {
  std::vector<Table> sources = {MakeTpcdiProspect(30, 85)};
  CampaignReport report = RunCampaign(sources, {}, SmallCampaign());
  EXPECT_GT(report.num_pairs, 0u);  // the suite is still fabricated
  EXPECT_EQ(report.num_configurations, 0u);
  EXPECT_EQ(report.num_experiments, 0u);
  EXPECT_EQ(report.failed_experiments, 0u);
  EXPECT_TRUE(report.families.empty());
  // Two runs serialize identically — nothing time-dependent leaks in.
  CampaignReport again = RunCampaign(sources, {}, SmallCampaign());
  EXPECT_EQ(ToJson(report), ToJson(again));
}

TEST(CampaignTest, FilterMatchingNothingIsSafe) {
  std::vector<Table> sources = {MakeTpcdiProspect(30, 86)};
  CampaignOptions opt = SmallCampaign();
  opt.family_filter = {"NoSuchFamily"};
  CampaignReport report =
      RunCampaign(sources, {SimilarityFloodingFamily()}, opt);
  EXPECT_TRUE(report.families.empty());
  EXPECT_EQ(report.num_configurations, 0u);
  EXPECT_EQ(report.num_experiments, 0u);
}

TEST(CampaignTest, EmptySuiteAndEmptyFamiliesSafe) {
  CampaignReport report = RunCampaignOnSuite({}, {}, {});
  EXPECT_EQ(report.num_pairs, 0u);
  EXPECT_EQ(report.num_experiments, 0u);
  EXPECT_TRUE(report.families.empty());
}

// Two families under one name: each one's taxonomy counts its own
// failures, as its failed_experiments does.
TEST(CampaignTest, FailureTaxonomyCountsOnlyItsOwnFamily) {
  MethodFamily healthy = SimilarityFloodingFamily();
  FaultPlan plan;
  plan.always_fail = true;
  MethodFamily failing{healthy.name, {}};
  for (const ConfiguredMatcher& cm : healthy.grid) {
    failing.grid.push_back(
        {cm.description,
         std::make_shared<FaultInjectingMatcher>(cm.matcher, plan)});
  }
  CampaignReport report = RunCampaign({MakeTpcdiProspect(30, 87)},
                                      {failing, healthy}, SmallCampaign());
  ASSERT_EQ(report.families.size(), 2u);
  const CampaignFamilyReport& first = report.families[0];
  EXPECT_EQ(first.failed_experiments, report.num_experiments / 2);
  ASSERT_EQ(first.failure_taxonomy.size(), 1u);
  EXPECT_EQ(first.failure_taxonomy[0].first, StatusCode::kInternal);
  EXPECT_EQ(first.failure_taxonomy[0].second, first.failed_experiments);
  EXPECT_EQ(report.families[1].failed_experiments, 0u);
  EXPECT_TRUE(report.families[1].failure_taxonomy.empty());
}

// A campaign that cannot open its journal runs nothing and says why.
TEST(CampaignJournalTest, UnopenableJournalRunsNoExperiment) {
  CampaignOptions opt = SmallCampaign();
  opt.journal_path = "/nonexistent-dir/valentine_journal.jsonl";
  MetricsRegistry metrics;
  opt.metrics = &metrics;
  CampaignReport report = RunCampaign({MakeTpcdiProspect(30, 88)},
                                      {SimilarityFloodingFamily()}, opt);
  EXPECT_EQ(report.status.code(), StatusCode::kIOError);
  EXPECT_TRUE(report.families.empty());
  EXPECT_EQ(report.num_experiments, 0u);
  EXPECT_TRUE(metrics.CounterSamples().empty());
}

// A journal whose writes fail mid-run lets the campaign finish and
// returns the journal's error: /dev/full accepts the open and fails
// every flush.
TEST(CampaignJournalTest, FailedJournalWriteFinishesAndReportsError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "needs /dev/full";
  }
  CampaignOptions opt = SmallCampaign();
  opt.journal_path = "/dev/full";
  const std::vector<Table> sources = {MakeTpcdiProspect(30, 89)};
  CampaignReport report =
      RunCampaign(sources, {SimilarityFloodingFamily()}, opt);
  EXPECT_EQ(report.status.code(), StatusCode::kIOError);
  ASSERT_EQ(report.families.size(), 1u);
  EXPECT_EQ(report.num_experiments, 6u);
  EXPECT_EQ(report.families[0].outcomes.size(), 6u);
  EXPECT_EQ(report.failed_experiments, 0u);
  // A healthy journal leaves the status OK.
  opt.journal_path = ::testing::TempDir() + "valentine_campaign_ok.jsonl";
  std::remove(opt.journal_path.c_str());
  EXPECT_TRUE(
      RunCampaign(sources, {SimilarityFloodingFamily()}, opt).status.ok());
  std::remove(opt.journal_path.c_str());
}

// The artifact cache keys each table on TableContentFingerprint, and
// the runners compute it once per suite table per call: 2P for a suite
// of P pairs, however many configurations share it (two per
// configuration, 2PC, before the runners took it over).
std::vector<MethodFamily> TwoFamilies() {
  MethodFamily cupid = CupidFamily();
  cupid.grid.resize(4);
  return {cupid, JaccardLevenshteinFamily()};  // 4 + 5 configurations
}

TEST(FingerprintOnceTest, CampaignFingerprintsEachSuiteTableOncePerCall) {
  const std::vector<DatasetPair> suite =
      BuildFabricatedSuite(MakeTpcdiProspect(30, 85), SmallCampaign().suite);
  ASSERT_EQ(suite.size(), 6u);
  for (size_t threads : {1, 4}) {
    CampaignOptions opt = SmallCampaign();
    opt.num_threads = threads;
    const uint64_t before = TableContentFingerprintCalls();
    const CampaignReport report =
        RunCampaignOnSuite(suite, TwoFamilies(), opt);
    EXPECT_EQ(TableContentFingerprintCalls() - before, 2 * suite.size())
        << threads << " threads";
    EXPECT_EQ(report.num_experiments, 9 * suite.size());
    EXPECT_EQ(report.failed_experiments, 0u);
  }
}

TEST(FingerprintOnceTest, FamilyRunnersFingerprintEachSuiteTableOncePerCall) {
  const std::vector<DatasetPair> suite =
      BuildFabricatedSuite(MakeTpcdiProspect(30, 86), SmallCampaign().suite);
  const MethodFamily family = JaccardLevenshteinFamily();
  ArtifactCache cache;
  FamilyRunContext run;
  run.artifacts = &cache;
  auto calls_during = [](const std::function<void()>& call) {
    const uint64_t before = TableContentFingerprintCalls();
    call();
    return TableContentFingerprintCalls() - before;
  };
  for (size_t threads : {1, 4}) {
    EXPECT_EQ(
        calls_during([&] { RunFamilyOnSuite(family, suite, run, threads); }),
        2 * suite.size())
        << threads << " threads";
  }
  EXPECT_EQ(calls_during([&] { RunFamilyOnPair(family, suite[0], run); }),
            2u);
  // Without a cache nothing is fingerprinted.
  EXPECT_EQ(calls_during([&] { RunFamilyOnSuite(family, suite); }), 0u);

  // Fingerprints the caller passes are used as they are.
  const std::vector<PairFingerprints> fingerprints =
      FingerprintSuite(suite, 2);
  run.fingerprints = &fingerprints;
  for (size_t threads : {1, 4}) {
    EXPECT_EQ(
        calls_during([&] { RunFamilyOnSuite(family, suite, run, threads); }),
        0u)
        << threads << " threads";
  }
}

// Cupid's pair artifact (its linguistic-similarity matrix) is built once
// per suite pair per family call on one thread. Configuration-major
// workers may race to build a pair's first artifact, at most once each.
// Nothing is built without the cache, nor for a family with no pair
// stage.
TEST(PairArtifactOnceTest, CampaignBuildsOneCupidPairArtifactPerSuitePair) {
  const std::vector<DatasetPair> suite =
      BuildFabricatedSuite(MakeTpcdiProspect(30, 87), SmallCampaign().suite);
  ASSERT_EQ(suite.size(), 6u);
  auto builds_during = [&](const std::vector<MethodFamily>& families,
                           CampaignOptions opt) {
    const uint64_t before = PairArtifactBuilds();
    const CampaignReport report = RunCampaignOnSuite(suite, families, opt);
    EXPECT_EQ(report.failed_experiments, 0u);
    return PairArtifactBuilds() - before;
  };
  const std::vector<MethodFamily> families = TwoFamilies();  // Cupid + JL
  CampaignOptions one_thread = SmallCampaign();
  one_thread.num_threads = 1;
  EXPECT_EQ(builds_during(families, one_thread), suite.size());
  CampaignOptions racing = SmallCampaign();
  racing.num_threads = 4;
  const uint64_t raced = builds_during(families, racing);
  EXPECT_GE(raced, suite.size());
  EXPECT_LE(raced, 4 * suite.size());

  const uint64_t before = PairArtifactBuilds();
  for (const MethodFamily& family : families) RunFamilyOnSuite(family, suite);
  EXPECT_EQ(PairArtifactBuilds() - before, 0u);
  EXPECT_EQ(builds_during({JaccardLevenshteinFamily()}, SmallCampaign()), 0u);
}

TEST(CsvDirectoryTest, LoadsAllCsvFiles) {
  namespace fs = std::filesystem;
  std::string dir = ::testing::TempDir() + "/valentine_repo_test";
  fs::create_directories(dir);
  Table t1("a");
  Column c1("x", DataType::kInt64);
  c1.Append(Value::Int(1));
  ASSERT_TRUE(t1.AddColumn(std::move(c1)).ok());
  ASSERT_TRUE(WriteCsvFile(t1, dir + "/alpha.csv").ok());
  ASSERT_TRUE(WriteCsvFile(t1, dir + "/beta.csv").ok());
  {
    std::FILE* f = std::fopen((dir + "/ignored.txt").c_str(), "w");
    std::fputs("not a csv", f);
    std::fclose(f);
  }
  auto tables = ReadCsvDirectory(dir);
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 2u);
  EXPECT_EQ((*tables)[0].name(), "alpha");  // deterministic (sorted)
  EXPECT_EQ((*tables)[1].name(), "beta");
  fs::remove_all(dir);
}

TEST(CsvDirectoryTest, MissingDirectoryIsIOError) {
  auto tables = ReadCsvDirectory("/nonexistent/repo");
  EXPECT_FALSE(tables.ok());
  EXPECT_EQ(tables.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace valentine
