// Determinism contract of RunFamilyOnSuite (runner.h): results are
// byte-identical to the uncached one-thread run for every matcher family,
// every thread count and with or without a shared ArtifactCache, run
// after run. This is the test ThreadSanitizer actually exercises
// (`ctest -L tsan`): all workers share the same matcher instances and,
// when cached, the same table and pair artifacts, so any unsynchronized
// mutable state shows up both as a TSan report and as a byte diff here.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/json_export.h"
#include "harness/runner.h"
#include "matchers/embdi.h"
#include "obs/clock.h"

namespace valentine {
namespace {

// Every run measures time on a shared non-advancing FakeClock
// (FamilyRunContext::clock), so timing fields are deterministically
// zero and ToJson output is byte-comparable unmodified — the fake-clock
// replacement for the old zero-out-total_ms canonicalization.
FakeClock& SharedFakeClock() {
  static FakeClock clock;
  return clock;
}

FamilyRunContext ClockedRun() {
  FamilyRunContext run;
  run.clock = &SharedFakeClock();
  return run;
}

// First `n` grid points of a family: full grids (Cupid alone has 96)
// would swamp the sanitizer cycle without adding concurrency coverage.
// Two configurations still share per-instance caches across threads.
MethodFamily Truncate(MethodFamily family, size_t n) {
  if (family.grid.size() > n) family.grid.resize(n);
  return family;
}

Ontology RaceTestOntology() {
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
    static const Ontology kOntology = RaceTestOntology();
    return Truncate(SemPropFamily(&kOntology), 2);
  }
  if (name == "EmbDI") {
    // Minimal word2vec budget: the default EmbdiFamily() trains ~60s of
    // embeddings per thread-count case, which TSan would stretch past
    // the ctest timeout. Concurrency coverage only needs Match to run,
    // not to converge.
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

// The uncached one-thread reference is deterministic per family, so
// compute each one once and share it across the instantiations.
const std::string& SequentialBaseline(const std::string& family_name) {
  static std::map<std::string, std::string> baselines;
  auto it = baselines.find(family_name);
  if (it == baselines.end()) {
    MethodFamily family = MakeFamily(family_name);
    it = baselines
             .emplace(family_name,
                      ToJson(RunFamilyOnSuite(family, SharedSuite(),
                                              ClockedRun())))
             .first;
  }
  return it->second;
}

// (family, num_threads, shared cache); 0 threads = hardware concurrency.
using RaceParam = std::tuple<std::string, size_t, bool>;

class ParallelDeterminismTest : public ::testing::TestWithParam<RaceParam> {};

TEST_P(ParallelDeterminismTest, MatchesUncachedOneThreadBytes) {
  const auto& [family_name, num_threads, cached] = GetParam();
  const std::string& expected = SequentialBaseline(family_name);
  ASSERT_FALSE(SharedSuite().empty());

  // One family object and one cache for all repeats: workers share
  // matcher instances and artifacts, and warm state must not change
  // results. The cache rides along as in a real campaign, so TSan also
  // sees concurrent GetOrPrepare, GetOrPreparePair and artifact reads.
  MethodFamily family = MakeFamily(family_name);
  ArtifactCache cache;
  FamilyRunContext run = ClockedRun();
  if (cached) run.artifacts = &cache;
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(ToJson(RunFamilyOnSuite(family, SharedSuite(), run,
                                      num_threads)),
              expected)
        << family_name << " diverged from the uncached one-thread run with "
        << (num_threads == 0 ? std::string("hardware")
                             : std::to_string(num_threads))
        << " threads, cache " << (cached ? "on" : "off") << " (repeat "
        << repeat << ")";
  }
  if (cached) {
    EXPECT_GT(cache.size(), 0u) << "cache was never consulted";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllThreadCounts, ParallelDeterminismTest,
    ::testing::Combine(
        ::testing::Values("Cupid", "SimilarityFlooding", "COMA",
                          "Distribution", "SemProp", "EmbDI",
                          "JaccardLevenshtein"),
        // 1 runs the work items inline; 0 = hardware concurrency.
        ::testing::Values<size_t>(1, 2, 8, 0), ::testing::Bool()),
    [](const ::testing::TestParamInfo<RaceParam>& info) {
      // No structured bindings here: the preprocessor would split the
      // macro argument at the comma inside the bracket list.
      size_t threads = std::get<1>(info.param);
      return std::get<0>(info.param) + "_t" +
             (threads == 0 ? std::string("hw") : std::to_string(threads)) +
             (std::get<2>(info.param) ? "_cached" : "_uncached");
    });

}  // namespace
}  // namespace valentine
