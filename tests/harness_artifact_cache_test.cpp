// Byte-identity contract of the campaign's shared ArtifactCache
// (runner.h, campaign.h): serving prepared artifacts changes where
// per-table work is done, never what it produces, so each family's
// campaign outcomes must be bit-for-bit identical to the uncached
// one-thread family run, and the campaign's report identical at every
// thread count. Runs under TSan with the cache shared across worker
// threads (the per-family matrix, threads x cache on/off, is
// harness_parallel_race_test's). Also pins the Jaccard-Levenshtein
// reference kernel to the default banded one.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/campaign.h"
#include "harness/json_export.h"
#include "matchers/jaccard_levenshtein.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace valentine {
namespace {

// Every run in this file measures time on a shared non-advancing
// FakeClock, so timing fields are deterministically zero and reports /
// outcome lists compare byte-for-byte unmodified — no field scrubbing.
// The artifact-cache hit/miss split still depends on thread
// interleaving, but it lives on the MetricsRegistry, outside the
// byte-compared report.
FakeClock& SharedFakeClock() {
  static FakeClock clock;
  return clock;
}

FamilyRunContext ClockedRun() {
  FamilyRunContext run;
  run.clock = &SharedFakeClock();
  return run;
}

MethodFamily Truncate(MethodFamily family, size_t n) {
  if (family.grid.size() > n) family.grid.resize(n);
  return family;
}

MethodFamily MakeFamily(const std::string& name) {
  if (name == "COMA") return ComaFamily();
  if (name == "Distribution") return Truncate(DistributionFamily1(), 2);
  if (name == "JaccardLevenshtein") return Truncate(JaccardLevenshteinFamily(), 2);
  ADD_FAILURE() << "unknown family " << name;
  return {};
}

const std::vector<DatasetPair>& SharedSuite() {
  static const std::vector<DatasetPair> kSuite = [] {
    Table original = MakeTpcdiProspect(30, 99);
    PairSuiteOptions opt;
    opt.row_overlaps = {0.5};
    opt.column_overlaps = {0.5};
    opt.instance_noise_variants = false;
    return BuildFabricatedSuite(original, opt);
  }();
  return kSuite;
}

// The reference full-matrix Levenshtein kernel and the default banded
// one score bit-identically, so the whole Jaccard-Levenshtein grid
// yields the same canonical outcomes on either.
TEST(JaccardLevenshteinKernelTest, NaiveKernelMatchesBandedOutcomes) {
  const MethodFamily banded = JaccardLevenshteinFamily();
  const std::vector<double> thresholds = {0.4, 0.5, 0.6, 0.7, 0.8};
  ASSERT_EQ(banded.grid.size(), thresholds.size());
  MethodFamily naive{banded.name, {}};
  for (size_t i = 0; i < thresholds.size(); ++i) {
    JaccardLevenshteinOptions opt;
    opt.threshold = thresholds[i];
    opt.kernel = LevenshteinKernel::kNaive;
    naive.grid.push_back({banded.grid[i].description,
                          std::make_shared<JaccardLevenshteinMatcher>(opt)});
  }
  EXPECT_EQ(ToJson(RunFamilyOnSuite(naive, SharedSuite(), ClockedRun())),
            ToJson(RunFamilyOnSuite(banded, SharedSuite(), ClockedRun())));
}

// Campaign level: each family's outcomes match the uncached one-thread
// family run, and the report is byte-identical at every thread count.
TEST(CampaignCacheTest, ReportInvariantUnderThreads) {
  std::vector<MethodFamily> families = {
      MakeFamily("JaccardLevenshtein"),
      MakeFamily("Distribution"),
      MakeFamily("COMA"),
  };

  CampaignOptions one_thread;
  one_thread.num_threads = 1;
  one_thread.clock = &SharedFakeClock();
  const CampaignReport report =
      RunCampaignOnSuite(SharedSuite(), families, one_thread);
  ASSERT_EQ(report.families.size(), families.size());
  for (size_t f = 0; f < families.size(); ++f) {
    EXPECT_EQ(ToJson(report.families[f].outcomes),
              ToJson(RunFamilyOnSuite(families[f], SharedSuite(),
                                      ClockedRun())))
        << families[f].name;
  }

  const std::string expected = ToJson(report);
  for (size_t threads : {size_t{2}, size_t{0}}) {
    CampaignOptions options;
    options.num_threads = threads;
    options.clock = &SharedFakeClock();
    EXPECT_EQ(ToJson(RunCampaignOnSuite(SharedSuite(), families, options)),
              expected)
        << "threads=" << threads;
  }
}

// The per-family artifact-cache counters live on the MetricsRegistry
// (the single exclusion point from the byte-identity contract), never
// on the report: the report JSON carries no cache diagnostics.
TEST(CampaignCacheTest, ArtifactCacheCountersOnMetricsRegistry) {
  std::vector<MethodFamily> families = {MakeFamily("JaccardLevenshtein"),
                                        MakeFamily("Distribution")};

  MetricsRegistry metrics;
  CampaignOptions options;
  options.num_threads = 1;
  options.clock = &SharedFakeClock();
  options.metrics = &metrics;
  CampaignReport report = RunCampaignOnSuite(SharedSuite(), families, options);
  for (const MethodFamily& family : families) {
    // Each table is prepared once per family (miss+build), then every
    // further configuration of the grid is served from the cache. The
    // cache keys series by matcher Name(), not the (decoratable) family
    // label, so resolve it from the grid.
    const MetricLabels labels = {{"family", family.grid[0].matcher->Name()}};
    uint64_t hits =
        metrics.CounterValue("valentine_artifact_cache_hits_total", labels);
    uint64_t misses =
        metrics.CounterValue("valentine_artifact_cache_misses_total", labels);
    uint64_t builds =
        metrics.CounterValue("valentine_artifact_cache_builds_total", labels);
    EXPECT_GT(misses, 0u) << family.name;
    EXPECT_EQ(builds, misses) << family.name;
    EXPECT_GT(hits, 0u) << family.name;
  }
  const std::string text = metrics.RenderPrometheusText();
  EXPECT_NE(text.find("valentine_artifact_cache_hits_total{family="),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE valentine_artifact_cache_hits_total counter"),
            std::string::npos);
  // The report itself carries no cache diagnostics.
  EXPECT_EQ(ToJson(report).find("artifact_cache"), std::string::npos);
}

}  // namespace
}  // namespace valentine
