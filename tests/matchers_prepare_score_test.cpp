// Byte-identity contract of the two-stage matcher pipeline (matcher.h):
// for every family and every grid configuration, Prepare(src) +
// Prepare(tgt) + Score must produce the same serialized MatchResult as
// the monolithic Match — with or without a column profile handed to
// Prepare, matching spec or not — and Score must degrade gracefully
// (identical bytes, by re-preparing inline) when handed foreign or
// stale artifacts.
// Also covers the ArtifactCache: build-once semantics, value keying,
// failure propagation, stats counters, and concurrent GetOrPrepare
// (tsan-labeled); and the knowledge-base fingerprints PrepareKeys embed:
// mutations reach the key, concurrent first reads of the memo are
// race-free (tsan-labeled).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/tpcdi.h"
#include "fabrication/fabricator.h"
#include "harness/json_export.h"
#include "harness/param_grid.h"
#include "harness/runner.h"
#include "knowledge/ontology.h"
#include "knowledge/thesaurus.h"
#include "matchers/artifact_cache.h"
#include "matchers/coma.h"
#include "matchers/cupid.h"
#include "matchers/ensemble.h"
#include "matchers/jaccard_levenshtein.h"
#include "matchers/matcher.h"
#include "matchers/semprop.h"
#include "matchers/similarity_flooding.h"
#include "stats/column_profile.h"

namespace valentine {
namespace {

Ontology TestOntology() {
  Ontology o;
  size_t root = o.AddClass("root", {"entity"});
  o.AddSubclass(root, "person", {"person", "customer", "prospect"});
  o.AddSubclass(root, "address", {"address", "city", "country"});
  return o;
}

/// One fabricated pair shared by every test: realistic column overlap
/// plus schema noise, so instance- and schema-based families both have
/// signal to disagree on if the pipeline were subtly wrong.
const DatasetPair& SharedPair() {
  static const DatasetPair kPair = [] {
    Table original = MakeTpcdiProspect(40, 123);
    FabricationOptions fab;
    fab.scenario = Scenario::kViewUnionable;
    fab.column_overlap = 0.5;
    fab.noisy_schema = true;
    fab.seed = 7;
    return FabricateDatasetPair(original, fab).ValueOrDie();
  }();
  return kPair;
}

MethodFamily Truncate(MethodFamily family, size_t n) {
  if (family.grid.size() > n) family.grid.resize(n);
  return family;
}

std::vector<MethodFamily> AllTestFamilies() {
  static const Ontology kOntology = TestOntology();
  std::vector<MethodFamily> families;
  families.push_back(Truncate(CupidFamily(), 3));
  families.push_back(SimilarityFloodingFamily());
  families.push_back(ComaFamily());
  families.push_back(Truncate(DistributionFamily1(), 3));
  families.push_back(Truncate(SemPropFamily(&kOntology), 3));
  families.push_back(EmbdiFamily());
  families.push_back(Truncate(JaccardLevenshteinFamily(), 3));
  MethodFamily ensemble{"Ensemble", {}};
  ensemble.grid.push_back({"default", MakeDefaultEnsemble()});
  families.push_back(std::move(ensemble));
  return families;
}

class PrepareScoreFamilyTest : public ::testing::TestWithParam<size_t> {};

/// Match's bytes on SharedPair() per (family, configuration), computed
/// once per process: both parameterized tests compare against them, and
/// EmbDI's Match trains word2vec, which dominates this binary's run time
/// under the sanitizers.
const std::string& MatchBytes(const MethodFamily& family,
                              const ConfiguredMatcher& cm) {
  static std::map<std::string, std::string> memo;
  const std::string key = family.name + '\x1f' + cm.description;
  auto it = memo.find(key);
  if (it == memo.end()) {
    const DatasetPair& pair = SharedPair();
    it = memo.emplace(key, ToJson(cm.matcher->Match(pair.source,
                                                     pair.target)))
             .first;
  }
  return it->second;
}

// The profiles Prepare may be handed, per table: none, one built under
// the default spec (what the discovery store serves), and one whose caps,
// hash count and bins match no matcher default, so every consumer must
// decline the mismatched artifacts and extract inline.
struct ProfileInput {
  const char* name;
  std::shared_ptr<const TableProfile> source;
  std::shared_ptr<const TableProfile> target;
};

std::vector<ProfileInput> ProfileInputs(const DatasetPair& pair) {
  ProfileSpec mismatched;
  mismatched.set_cap = 3;
  mismatched.distinct_cap = 5;
  mismatched.minhash_hashes = 8;
  mismatched.num_bins = 16;
  auto build = [](const Table& table, const ProfileSpec& spec) {
    return std::make_shared<const TableProfile>(
        TableProfile::Build(table, spec));
  };
  return {
      {"no profile", nullptr, nullptr},
      {"default profile", build(pair.source, {}), build(pair.target, {})},
      {"mismatched profile", build(pair.source, mismatched),
       build(pair.target, mismatched)},
  };
}

// Prepare + Score == Match, bit for bit, for every configuration and
// every profile input.
TEST_P(PrepareScoreFamilyTest, PipelineMatchesMonolithicBytes) {
  const MethodFamily family = AllTestFamilies()[GetParam()];
  const DatasetPair& pair = SharedPair();
  const std::vector<ProfileInput> inputs = ProfileInputs(pair);
  for (const ConfiguredMatcher& cm : family.grid) {
    const ColumnMatcher& m = *cm.matcher;
    const std::string& expected = MatchBytes(family, cm);

    MatchContext context;
    for (const ProfileInput& input : inputs) {
      Result<PreparedTablePtr> ps =
          m.Prepare(pair.source, input.source.get(), context);
      Result<PreparedTablePtr> pt =
          m.Prepare(pair.target, input.target.get(), context);
      ASSERT_TRUE(ps.ok()) << family.name << " " << cm.description << " "
                           << input.name;
      ASSERT_TRUE(pt.ok()) << family.name << " " << cm.description << " "
                           << input.name;
      Result<MatchResult> scored = m.Score(**ps, **pt, context);
      ASSERT_TRUE(scored.ok()) << family.name << " " << cm.description << " "
                               << input.name;
      EXPECT_EQ(ToJson(*scored), expected)
          << family.name << " " << cm.description << " " << input.name
          << " diverged on the prepared fast path";

      // Artifacts are reusable: scoring again must not consume state.
      // Once per configuration is enough (EmbDI retrains per Score).
      if (input.source != nullptr) continue;
      Result<MatchResult> again = m.Score(**ps, **pt, context);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(ToJson(*again), expected)
          << family.name << " " << cm.description
          << " diverged on artifact reuse";
    }
  }
}

// A foreign artifact (wrong dynamic type / wrong prepare key) must cost
// time, never bytes: Score re-prepares inline and matches Match.
TEST_P(PrepareScoreFamilyTest, ForeignArtifactFallsBackToIdenticalBytes) {
  const MethodFamily family = AllTestFamilies()[GetParam()];
  const DatasetPair& pair = SharedPair();
  const ColumnMatcher& m = *family.grid[0].matcher;
  const std::string& expected = MatchBytes(family, family.grid[0]);

  // Base-class artifacts: right tables, wrong dynamic type.
  auto foreign_src = std::make_shared<const PreparedTable>(
      &pair.source, "Foreign", "not-a-real-key");
  auto foreign_tgt = std::make_shared<const PreparedTable>(
      &pair.target, "Foreign", "not-a-real-key");
  MatchContext context;
  Result<MatchResult> scored = m.Score(*foreign_src, *foreign_tgt, context);
  ASSERT_TRUE(scored.ok()) << family.name;
  EXPECT_EQ(ToJson(*scored), expected)
      << family.name << " changed bytes on a foreign artifact";

  // Mixed: one genuine artifact, one foreign — still a clean fallback.
  Result<PreparedTablePtr> genuine = m.Prepare(pair.source, nullptr, context);
  ASSERT_TRUE(genuine.ok());
  Result<MatchResult> mixed = m.Score(**genuine, *foreign_tgt, context);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(ToJson(*mixed), expected)
      << family.name << " changed bytes on a mixed artifact pair";
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, PrepareScoreFamilyTest,
    ::testing::Range<size_t>(0, 8),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = AllTestFamilies()[info.param].name;
      // Family names can carry non-identifier characters ("Dist#1").
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- ArtifactCache unit coverage. ---

TEST(ArtifactCacheTest, BuildOnceThenServe) {
  Table table = MakeTpcdiProspect(25, 5);
  JaccardLevenshteinMatcher matcher;
  ArtifactCache cache;
  MatchContext context;
  const uint64_t fp = TableContentFingerprint(table);

  PreparedTablePtr first =
      cache.GetOrPrepare(matcher, table, fp, nullptr, context);
  ASSERT_NE(first, nullptr);
  PreparedTablePtr second =
      cache.GetOrPrepare(matcher, table, fp, nullptr, context);
  EXPECT_EQ(first.get(), second.get()) << "second lookup rebuilt";
  EXPECT_EQ(cache.size(), 1u);

  auto stats = cache.StatsSnapshot();
  ASSERT_EQ(stats.count(matcher.Name()), 1u);
  EXPECT_EQ(stats[matcher.Name()].hits, 1u);
  EXPECT_EQ(stats[matcher.Name()].misses, 1u);
  EXPECT_EQ(stats[matcher.Name()].builds, 1u);
}

TEST(ArtifactCacheTest, ValueKeyingServesTableCopies) {
  // Same content at a different address must hit (value keys, not
  // address keys).
  Table original = MakeTpcdiProspect(25, 5);
  Table copy = original;
  JaccardLevenshteinMatcher matcher;
  ArtifactCache cache;
  MatchContext context;

  const uint64_t fp = TableContentFingerprint(original);
  ASSERT_EQ(TableContentFingerprint(copy), fp);
  PreparedTablePtr a =
      cache.GetOrPrepare(matcher, original, fp, nullptr, context);
  PreparedTablePtr b = cache.GetOrPrepare(matcher, copy, fp, nullptr, context);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);

  // Same content, different name: distinct entry.
  Table renamed = original;
  renamed.set_name("renamed");
  PreparedTablePtr c = cache.GetOrPrepare(
      matcher, renamed, TableContentFingerprint(renamed), nullptr, context);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(cache.size(), 2u);
}

// The fingerprint is the caller's: the cache keys on it as given and
// never hashes a table itself.
TEST(ArtifactCacheTest, KeysOnTheCallersFingerprint) {
  Table table = MakeTpcdiProspect(25, 5);
  JaccardLevenshteinMatcher matcher;
  ArtifactCache cache;
  MatchContext context;
  const uint64_t before = TableContentFingerprintCalls();
  PreparedTablePtr a = cache.GetOrPrepare(matcher, table, 1, nullptr, context);
  PreparedTablePtr b = cache.GetOrPrepare(matcher, table, 1, nullptr, context);
  PreparedTablePtr c = cache.GetOrPrepare(matcher, table, 2, nullptr, context);
  EXPECT_EQ(TableContentFingerprintCalls(), before);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ArtifactCacheTest, PrepareKeyAndFamilySeparateEntries) {
  Table table = MakeTpcdiProspect(25, 5);
  JaccardLevenshteinOptions small;
  small.max_distinct_values = 10;
  JaccardLevenshteinOptions large;
  large.max_distinct_values = 500;
  JaccardLevenshteinMatcher jl_small(small);
  JaccardLevenshteinMatcher jl_large(large);
  ArtifactCache cache;
  MatchContext context;

  const uint64_t fp = TableContentFingerprint(table);
  PreparedTablePtr a =
      cache.GetOrPrepare(jl_small, table, fp, nullptr, context);
  PreparedTablePtr b =
      cache.GetOrPrepare(jl_large, table, fp, nullptr, context);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get()) << "different prepare keys shared an entry";
  EXPECT_EQ(cache.size(), 2u);

  // Same table, another family: a third entry under its own stats row.
  SimilarityFloodingMatcher sf;
  PreparedTablePtr c = cache.GetOrPrepare(sf, table, fp, nullptr, context);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(cache.size(), 3u);
  auto stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.count("JaccardLevenshtein"), 1u);
  EXPECT_EQ(stats.count("SimilarityFlooding"), 1u);
}

/// Matcher whose Prepare always fails: exercises the nullptr contract.
class FailingPrepareMatcher : public ColumnMatcher {
 public:
  std::string Name() const override { return "FailingPrepare"; }
  MatcherCategory Category() const override {
    return MatcherCategory::kSchemaBased;
  }
  std::vector<MatchType> Capabilities() const override { return {}; }
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table&, const TableProfile*, const MatchContext&) const override {
    return Status::Internal("prepare always fails");
  }
  [[nodiscard]] Result<MatchResult> MatchWithContext(
      const Table&, const Table&, const MatchContext&) const override {
    return MatchResult();
  }
};

TEST(ArtifactCacheTest, FailedPrepareReturnsNullAndIsNotCached) {
  Table table = MakeTpcdiProspect(25, 5);
  FailingPrepareMatcher matcher;
  ArtifactCache cache;
  MatchContext context;

  const uint64_t fp = TableContentFingerprint(table);
  EXPECT_EQ(cache.GetOrPrepare(matcher, table, fp, nullptr, context), nullptr);
  EXPECT_EQ(cache.GetOrPrepare(matcher, table, fp, nullptr, context), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  auto stats = cache.StatsSnapshot();
  EXPECT_EQ(stats["FailingPrepare"].misses, 2u);
  EXPECT_EQ(stats["FailingPrepare"].builds, 2u);
  EXPECT_EQ(stats["FailingPrepare"].hits, 0u);
}

// Concurrent GetOrPrepare over shared keys: every caller lands on one
// artifact per key and scoring from it matches the sequential bytes.
// Runs under TSan via the tsan ctest label.
TEST(ArtifactCacheTest, ConcurrentGetOrPrepareIsSafeAndDeterministic) {
  const DatasetPair& pair = SharedPair();
  JaccardLevenshteinMatcher matcher;
  const std::string expected = ToJson(matcher.Match(pair.source, pair.target));

  ArtifactCache cache;
  const PairFingerprints fp = FingerprintPair(pair);
  constexpr size_t kThreads = 8;
  std::vector<std::string> jsons(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MatchContext context;
      PreparedTablePtr ps =
          cache.GetOrPrepare(matcher, pair.source, fp.source, nullptr, context);
      PreparedTablePtr pt =
          cache.GetOrPrepare(matcher, pair.target, fp.target, nullptr, context);
      if (ps == nullptr || pt == nullptr) return;  // leaves jsons[t] empty
      Result<MatchResult> scored = matcher.Score(*ps, *pt, context);
      if (scored.ok()) jsons[t] = ToJson(*scored);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.size(), 2u);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(jsons[t], expected) << "thread " << t;
  }
}

Table MakeNamedTable(const std::string& name,
                     const std::vector<std::string>& columns) {
  Table table(name);
  for (const std::string& column : columns) {
    Column c(column, DataType::kString);
    c.Append(Value::String(column + "_a"));
    c.Append(Value::String(column + "_b"));
    EXPECT_TRUE(table.AddColumn(std::move(c)).ok());
  }
  return table;
}

// COMA expands abbreviations in Prepare, so two thesauri that differ in
// one abbreviation build different artifacts for the same table. A
// shared cache must keep them apart (one entry per thesaurus per table),
// and each matcher must score exactly its own inline Match bytes.
TEST(ArtifactCacheTest, SharedCacheKeepsThesauriApart) {
  Thesaurus plain;
  plain.AddSynonymSet({"customer", "client"});
  Thesaurus expanding = plain;
  expanding.AddAbbreviation("cust", "customer");
  const Table src = MakeNamedTable("s", {"cust_name", "cust_city", "total"});
  const Table tgt = MakeNamedTable("t", {"client_name", "client_town", "sum"});
  const ComaMatcher with_plain({}, &plain);
  const ComaMatcher with_expanding({}, &expanding);
  ASSERT_NE(ToJson(with_plain.Match(src, tgt)),
            ToJson(with_expanding.Match(src, tgt)))
      << "the thesauri must disagree on this pair for the test to bite";

  ArtifactCache cache;
  MatchContext context;
  const uint64_t src_fp = TableContentFingerprint(src);
  const uint64_t tgt_fp = TableContentFingerprint(tgt);
  for (const ComaMatcher* matcher : {&with_plain, &with_expanding}) {
    PreparedTablePtr ps =
        cache.GetOrPrepare(*matcher, src, src_fp, nullptr, context);
    PreparedTablePtr pt =
        cache.GetOrPrepare(*matcher, tgt, tgt_fp, nullptr, context);
    ASSERT_NE(ps, nullptr);
    ASSERT_NE(pt, nullptr);
    Result<MatchResult> scored = matcher->Score(*ps, *pt, context);
    ASSERT_TRUE(scored.ok());
    EXPECT_EQ(ToJson(*scored), ToJson(matcher->Match(src, tgt)));
  }
  EXPECT_EQ(cache.size(), 4u);
}

// Keys are recomputed from the memoized fingerprint on every call, never
// cached in the matcher, so a knowledge base mutated after the matcher
// was built (and after a key was read) still changes the key.
TEST(KnowledgeKeyTest, MutationAfterPrepareKeyChangesKey) {
  Thesaurus thesaurus;
  thesaurus.AddSynonymSet({"customer", "client"});
  const ComaMatcher coma({}, &thesaurus);
  const CupidMatcher cupid({}, &thesaurus);
  const std::string coma_before = coma.PrepareKey();
  const std::string cupid_before = cupid.PrepareKey();
  thesaurus.AddAbbreviation("cust", "customer");
  EXPECT_NE(coma.PrepareKey(), coma_before);
  EXPECT_NE(cupid.PrepareKey(), cupid_before);

  Ontology ontology = TestOntology();
  const SemPropMatcher semprop(&ontology);
  const std::string semprop_before = semprop.PrepareKey();
  ontology.AddClass("product", {"product"});
  EXPECT_NE(semprop.PrepareKey(), semprop_before);
}

// Concurrent first reads of an empty fingerprint memo, directly and
// through PrepareKey(), agree with a sequential read. Runs under TSan
// via the tsan ctest label.
TEST(KnowledgeKeyTest, ConcurrentFingerprintAndPrepareKeyAreRaceFree) {
  const Thesaurus& reference_thesaurus = Thesaurus::Default();
  const Ontology reference_ontology = TestOntology();
  const uint64_t thesaurus_want = reference_thesaurus.Fingerprint();
  const uint64_t ontology_want = reference_ontology.Fingerprint();
  const std::string coma_want =
      ComaMatcher({}, &reference_thesaurus).PrepareKey();
  const std::string cupid_want =
      CupidMatcher({}, &reference_thesaurus).PrepareKey();
  const std::string semprop_want =
      SemPropMatcher(&reference_ontology).PrepareKey();
  for (int round = 0; round < 4; ++round) {
    // Copies start with an empty memo, so the threads race to fill it.
    const Thesaurus thesaurus = Thesaurus::Default();
    const Ontology ontology = TestOntology();
    const ComaMatcher coma({}, &thesaurus);
    const CupidMatcher cupid({}, &thesaurus);
    const SemPropMatcher semprop(&ontology);

    constexpr size_t kThreads = 8;
    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        bool all = true;
        for (int i = 0; i < 20; ++i) {
          all = all && thesaurus.Fingerprint() == thesaurus_want;
          all = all && ontology.Fingerprint() == ontology_want;
          all = all && coma.PrepareKey() == coma_want;
          all = all && cupid.PrepareKey() == cupid_want;
          all = all && semprop.PrepareKey() == semprop_want;
        }
        ok[t] = all ? 1 : 0;
      });
    }
    for (auto& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(ok[t], 1) << "round " << round << " thread " << t;
    }
  }
}

}  // namespace
}  // namespace valentine
