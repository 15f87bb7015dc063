#include "harness/campaign.h"

#include <gtest/gtest.h>

#include "datasets/tpcdi.h"
#include "harness/json_export.h"
#include "io/csv.h"

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
  for (ParallelGranularity granularity :
       {ParallelGranularity::kPair, ParallelGranularity::kConfig}) {
    for (size_t threads : {1, 4}) {
      CampaignOptions opt = SmallCampaign();
      opt.granularity = granularity;
      opt.num_threads = threads;
      const uint64_t before = TableContentFingerprintCalls();
      const CampaignReport report =
          RunCampaignOnSuite(suite, TwoFamilies(), opt);
      EXPECT_EQ(TableContentFingerprintCalls() - before, 2 * suite.size())
          << "granularity " << static_cast<int>(granularity) << ", "
          << threads << " threads";
      EXPECT_EQ(report.num_experiments, 9 * suite.size());
      EXPECT_EQ(report.failed_experiments, 0u);
    }
  }
  CampaignOptions uncached = SmallCampaign();
  uncached.use_artifact_cache = false;
  const uint64_t before = TableContentFingerprintCalls();
  RunCampaignOnSuite(suite, TwoFamilies(), uncached);
  EXPECT_EQ(TableContentFingerprintCalls() - before, 0u);
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
  EXPECT_EQ(calls_during([&] { RunFamilyOnSuite(family, suite, run); }),
            2 * suite.size());
  EXPECT_EQ(calls_during([&] { RunFamilyOnPair(family, suite[0], run); }),
            2u);
  for (ParallelGranularity granularity :
       {ParallelGranularity::kPair, ParallelGranularity::kConfig}) {
    EXPECT_EQ(calls_during([&] {
                RunFamilyOnSuiteParallel(family, suite, 4, run, granularity);
              }),
              2 * suite.size())
        << "granularity " << static_cast<int>(granularity);
  }

  // Fingerprints the caller passes are used as they are.
  const std::vector<PairFingerprints> fingerprints =
      FingerprintSuite(suite, 2);
  run.fingerprints = &fingerprints;
  EXPECT_EQ(calls_during([&] { RunFamilyOnSuite(family, suite, run); }), 0u);
  EXPECT_EQ(calls_during([&] {
              RunFamilyOnSuiteParallel(family, suite, 4, run,
                                       ParallelGranularity::kConfig);
            }),
            0u);
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
