// Byte-identity contract of the campaign's shared ArtifactCache
// (runner.h, campaign.h): serving prepared artifacts to a family run
// changes where per-table work is done, never what it produces, so
// canonical outcomes must be bit-for-bit identical with and without the
// cache — for every family, cold and warm, and at campaign level across
// every (use_artifact_cache, granularity, threads) combination. Runs
// under TSan with the cache shared across worker threads. Also pins the
// Jaccard-Levenshtein reference kernel to the default banded one.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/campaign.h"
#include "harness/json_export.h"
#include "harness/parallel.h"
#include "matchers/embdi.h"
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

Ontology ProfileTestOntology() {
  Ontology o;
  size_t root = o.AddClass("root", {"entity"});
  o.AddSubclass(root, "person", {"person", "customer", "prospect"});
  o.AddSubclass(root, "address", {"address", "city", "country"});
  return o;
}

MethodFamily MakeFamily(const std::string& name) {
  if (name == "Cupid") return Truncate(CupidFamily(), 2);
  if (name == "SimilarityFlooding") return SimilarityFloodingFamily();
  if (name == "COMA") return ComaFamily();
  if (name == "Distribution") return Truncate(DistributionFamily1(), 2);
  if (name == "SemProp") {
    static const Ontology kOntology = ProfileTestOntology();
    return Truncate(SemPropFamily(&kOntology), 2);
  }
  if (name == "EmbDI") {
    EmbdiOptions opt;
    opt.dimensions = 8;
    opt.walks_per_node = 1;
    opt.epochs = 1;
    opt.sentence_length = 20;
    opt.max_rows = 40;
    MethodFamily family{"EmbDI", {}};
    family.grid.push_back(
        {"word2vec tiny", std::make_shared<EmbdiMatcher>(opt)});
    return family;
  }
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

class ArtifactCacheFamilyTest
    : public ::testing::TestWithParam<std::string> {};

// Every family: cached == uncached, bit for bit.
TEST_P(ArtifactCacheFamilyTest, CachedRunMatchesUncachedBytes) {
  const std::string family_name = GetParam();
  MethodFamily family = MakeFamily(family_name);
  ASSERT_FALSE(SharedSuite().empty());

  const std::string uncached =
      ToJson(RunFamilyOnSuite(family, SharedSuite(), ClockedRun()));

  // Prepared-artifact fast path: must match the monolithic bytes, cold
  // and warm.
  ArtifactCache artifacts;
  FamilyRunContext run = ClockedRun();
  run.artifacts = &artifacts;
  EXPECT_EQ(ToJson(RunFamilyOnSuite(family, SharedSuite(), run)), uncached)
      << family_name << " diverged when scored from cached artifacts";
  EXPECT_GT(artifacts.size(), 0u) << "artifact cache was never consulted";
  EXPECT_EQ(ToJson(RunFamilyOnSuite(family, SharedSuite(), run)), uncached)
      << family_name << " diverged on warm artifacts";
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ArtifactCacheFamilyTest,
    ::testing::Values("Cupid", "SimilarityFlooding", "COMA", "Distribution",
                      "SemProp", "EmbDI", "JaccardLevenshtein"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

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

// Campaign level: the report is byte-identical across every combination
// of artifact caching and work-slicing granularity, threaded or not.
TEST(CampaignCacheTest, ReportInvariantUnderCacheAndGranularity) {
  std::vector<MethodFamily> families = {
      MakeFamily("JaccardLevenshtein"),
      MakeFamily("Distribution"),
      MakeFamily("COMA"),
  };

  CampaignOptions baseline;
  baseline.num_threads = 1;
  baseline.clock = &SharedFakeClock();
  baseline.use_artifact_cache = false;
  baseline.granularity = ParallelGranularity::kPair;
  const std::string expected =
      ToJson(RunCampaignOnSuite(SharedSuite(), families, baseline));

  for (bool use_artifacts : {false, true}) {
    for (ParallelGranularity granularity :
         {ParallelGranularity::kPair, ParallelGranularity::kConfig}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{0}}) {
        CampaignOptions options;
        options.num_threads = threads;
        options.clock = &SharedFakeClock();
        options.use_artifact_cache = use_artifacts;
        options.granularity = granularity;
        EXPECT_EQ(
            ToJson(RunCampaignOnSuite(SharedSuite(), families, options)),
            expected)
            << "artifacts=" << use_artifacts << " granularity="
            << (granularity == ParallelGranularity::kConfig ? "config"
                                                            : "pair")
            << " threads=" << threads;
      }
    }
  }
}

// The per-family artifact-cache counters live on the MetricsRegistry
// (the single exclusion point from the byte-identity contract), never
// on the report: present when the cache is on, absent when it is off,
// and the report JSON carries no cache diagnostics either way.
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

  MetricsRegistry off_metrics;
  CampaignOptions cache_off;
  cache_off.num_threads = 1;
  cache_off.clock = &SharedFakeClock();
  cache_off.use_artifact_cache = false;
  cache_off.metrics = &off_metrics;
  CampaignReport off = RunCampaignOnSuite(SharedSuite(), families, cache_off);
  EXPECT_EQ(off_metrics.RenderPrometheusText().find("valentine_artifact_cache"),
            std::string::npos);
  EXPECT_EQ(ToJson(off).find("artifact_cache"), std::string::npos);
}

}  // namespace
}  // namespace valentine
