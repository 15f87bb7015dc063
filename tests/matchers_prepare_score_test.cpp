// Byte-identity contract of the staged matcher pipeline (matcher.h):
// for every family and every grid configuration, Prepare(src) +
// Prepare(tgt) + Score must produce the same serialized MatchResult as
// the monolithic Match — with or without a pair artifact shared by every
// configuration — and Score must degrade gracefully (identical
// bytes, by re-preparing inline) when handed foreign or stale table or
// pair artifacts.
// Also covers the ArtifactCache: build-once semantics for table and pair
// artifacts, value keying, failure propagation, stats counters, and
// concurrent GetOrPrepare (tsan-labeled); and the knowledge-base
// fingerprints PrepareKeys embed: mutations reach the key, concurrent
// first reads of the memo are race-free (tsan-labeled).

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
#include "matchers/distribution_based.h"
#include "matchers/embdi.h"
#include "matchers/ensemble.h"
#include "matchers/jaccard_levenshtein.h"
#include "matchers/matcher.h"
#include "matchers/semprop.h"
#include "matchers/similarity_flooding.h"

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

/// EmbDI at the race tests' tiny word2vec budget: the pipeline contract
/// does not depend on how long embeddings train, and the default budget
/// made these cases most of this binary's run time under TSan.
MethodFamily TinyEmbdiFamily() {
  EmbdiOptions opt;
  opt.dimensions = 8;
  opt.walks_per_node = 1;
  opt.epochs = 1;
  opt.sentence_length = 20;
  opt.max_rows = 40;
  return {"EmbDI", {{"word2vec tiny", std::make_shared<EmbdiMatcher>(opt)}}};
}

std::vector<MethodFamily> AllTestFamilies() {
  static const Ontology kOntology = TestOntology();
  std::vector<MethodFamily> families;
  families.push_back(Truncate(CupidFamily(), 3));
  families.push_back(SimilarityFloodingFamily());
  families.push_back(ComaFamily());
  families.push_back(Truncate(DistributionFamily1(), 3));
  families.push_back(Truncate(SemPropFamily(&kOntology), 3));
  families.push_back(TinyEmbdiFamily());
  families.push_back(Truncate(JaccardLevenshteinFamily(), 3));
  MethodFamily ensemble{"Ensemble", {}};
  ensemble.grid.push_back({"default", MakeDefaultEnsemble()});
  families.push_back(std::move(ensemble));
  return families;
}

class PrepareScoreFamilyTest : public ::testing::TestWithParam<size_t> {};

/// Match's bytes on SharedPair() per (family, configuration), computed
/// once per process: every parameterized test compares against them.
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

// Prepare + Score == Match, bit for bit, for every configuration.
TEST_P(PrepareScoreFamilyTest, PipelineMatchesMonolithicBytes) {
  const MethodFamily family = AllTestFamilies()[GetParam()];
  const DatasetPair& pair = SharedPair();
  for (const ConfiguredMatcher& cm : family.grid) {
    const ColumnMatcher& m = *cm.matcher;
    const std::string& expected = MatchBytes(family, cm);

    MatchContext context;
    Result<PreparedTablePtr> ps = m.Prepare(pair.source, context);
    Result<PreparedTablePtr> pt = m.Prepare(pair.target, context);
    ASSERT_TRUE(ps.ok()) << family.name << " " << cm.description;
    ASSERT_TRUE(pt.ok()) << family.name << " " << cm.description;
    Result<MatchResult> scored = m.Score(**ps, **pt, nullptr, context);
    ASSERT_TRUE(scored.ok()) << family.name << " " << cm.description;
    EXPECT_EQ(ToJson(*scored), expected)
        << family.name << " " << cm.description
        << " diverged on the prepared fast path";

    // Artifacts are reusable: scoring again must not consume state.
    Result<MatchResult> again = m.Score(**ps, **pt, nullptr, context);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(ToJson(*again), expected)
        << family.name << " " << cm.description
        << " diverged on artifact reuse";
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
  Result<MatchResult> scored = m.Score(*foreign_src, *foreign_tgt, nullptr, context);
  ASSERT_TRUE(scored.ok()) << family.name;
  EXPECT_EQ(ToJson(*scored), expected)
      << family.name << " changed bytes on a foreign artifact";

  // Mixed: one genuine artifact, one foreign — still a clean fallback.
  Result<PreparedTablePtr> genuine = m.Prepare(pair.source, context);
  ASSERT_TRUE(genuine.ok());
  Result<MatchResult> mixed = m.Score(**genuine, *foreign_tgt, nullptr, context);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(ToJson(*mixed), expected)
      << family.name << " changed bytes on a mixed artifact pair";
}

// Prepare, one PreparePair per prepare key, and every configuration's
// Score against that shared pair artifact == Match, bit for bit. Cupid
// and Distribution have a pair stage; the other families build none.
TEST_P(PrepareScoreFamilyTest, SharedPairArtifactMatchesMonolithicBytes) {
  const MethodFamily family = AllTestFamilies()[GetParam()];
  const DatasetPair& pair = SharedPair();
  const bool has_pair_stage =
      family.name == "Cupid" || family.name.rfind("Distribution", 0) == 0;
  struct Shared {
    PreparedTablePtr source;
    PreparedTablePtr target;
    PreparedPairPtr pair;
  };
  std::map<std::string, Shared> by_prepare_key;
  MatchContext context;
  for (const ConfiguredMatcher& cm : family.grid) {
    const ColumnMatcher& m = *cm.matcher;
    auto it = by_prepare_key.find(m.PrepareKey());
    if (it == by_prepare_key.end()) {
      Result<PreparedTablePtr> ps = m.Prepare(pair.source, context);
      Result<PreparedTablePtr> pt = m.Prepare(pair.target, context);
      ASSERT_TRUE(ps.ok() && pt.ok()) << family.name << " " << cm.description;
      Result<PreparedPairPtr> pp = m.PreparePair(**ps, **pt, context);
      ASSERT_TRUE(pp.ok()) << family.name << " " << cm.description;
      EXPECT_EQ(*pp != nullptr, has_pair_stage)
          << family.name << " " << cm.description;
      it = by_prepare_key.emplace(m.PrepareKey(), Shared{*ps, *pt, *pp}).first;
    }
    const Shared& shared = it->second;
    Result<MatchResult> scored =
        m.Score(*shared.source, *shared.target, shared.pair.get(), context);
    ASSERT_TRUE(scored.ok()) << family.name << " " << cm.description;
    EXPECT_EQ(ToJson(*scored), MatchBytes(family, cm))
        << family.name << " " << cm.description
        << " diverged on a shared pair artifact";
  }
}

/// A pair artifact of the base type: right tables, no family's own.
class ForeignPair : public PreparedPair {
 public:
  using PreparedPair::PreparedPair;
};

// A foreign or mismatched pair artifact must cost time, never bytes:
// Score builds the pair work inline and matches Match.
TEST_P(PrepareScoreFamilyTest, ForeignPairArtifactFallsBackToIdenticalBytes) {
  const MethodFamily family = AllTestFamilies()[GetParam()];
  const DatasetPair& pair = SharedPair();
  const ColumnMatcher& m = *family.grid[0].matcher;
  const std::string& expected = MatchBytes(family, family.grid[0]);
  MatchContext context;
  Result<PreparedTablePtr> ps = m.Prepare(pair.source, context);
  Result<PreparedTablePtr> pt = m.Prepare(pair.target, context);
  ASSERT_TRUE(ps.ok() && pt.ok()) << family.name;

  // Another family's pair artifact over the same tables, and one with a
  // key no matcher has.
  const CupidMatcher cupid;
  const DistributionBasedMatcher distribution;
  const ColumnMatcher& other =
      family.name == "Cupid" ? static_cast<const ColumnMatcher&>(distribution)
                             : cupid;
  Result<PreparedTablePtr> other_src = other.Prepare(pair.source, context);
  Result<PreparedTablePtr> other_tgt = other.Prepare(pair.target, context);
  ASSERT_TRUE(other_src.ok() && other_tgt.ok());
  Result<PreparedPairPtr> other_pair =
      other.PreparePair(**other_src, **other_tgt, context);
  ASSERT_TRUE(other_pair.ok());
  ASSERT_NE(*other_pair, nullptr);
  // Built over the swapped pair: this family's type, the wrong tables.
  Result<PreparedPairPtr> swapped = m.PreparePair(**pt, **ps, context);
  ASSERT_TRUE(swapped.ok());
  const ForeignPair foreign(**ps, **pt);

  for (const auto& [what, artifact] :
       std::vector<std::pair<const char*, const PreparedPair*>>{
           {"another family's", other_pair->get()},
           {"a swapped", swapped->get()},
           {"a base-class", &foreign}}) {
    Result<MatchResult> scored = m.Score(**ps, **pt, artifact, context);
    ASSERT_TRUE(scored.ok()) << family.name << " " << what;
    EXPECT_EQ(ToJson(*scored), expected)
        << family.name << " changed bytes on " << what << " pair artifact";
  }
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
      cache.GetOrPrepare(matcher, table, fp, context);
  ASSERT_NE(first, nullptr);
  PreparedTablePtr second =
      cache.GetOrPrepare(matcher, table, fp, context);
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
      cache.GetOrPrepare(matcher, original, fp, context);
  PreparedTablePtr b = cache.GetOrPrepare(matcher, copy, fp, context);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);

  // Same content, different name: distinct entry.
  Table renamed = original;
  renamed.set_name("renamed");
  PreparedTablePtr c = cache.GetOrPrepare(
      matcher, renamed, TableContentFingerprint(renamed), context);
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
  PreparedTablePtr a = cache.GetOrPrepare(matcher, table, 1, context);
  PreparedTablePtr b = cache.GetOrPrepare(matcher, table, 1, context);
  PreparedTablePtr c = cache.GetOrPrepare(matcher, table, 2, context);
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
      cache.GetOrPrepare(jl_small, table, fp, context);
  PreparedTablePtr b =
      cache.GetOrPrepare(jl_large, table, fp, context);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get()) << "different prepare keys shared an entry";
  EXPECT_EQ(cache.size(), 2u);

  // Same table, another family: a third entry under its own stats row.
  SimilarityFloodingMatcher sf;
  PreparedTablePtr c = cache.GetOrPrepare(sf, table, fp, context);
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
      const Table&, const MatchContext&) const override {
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
  EXPECT_EQ(cache.GetOrPrepare(matcher, table, fp, context), nullptr);
  EXPECT_EQ(cache.GetOrPrepare(matcher, table, fp, context), nullptr);
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
          cache.GetOrPrepare(matcher, pair.source, fp.source, context);
      PreparedTablePtr pt =
          cache.GetOrPrepare(matcher, pair.target, fp.target, context);
      if (ps == nullptr || pt == nullptr) return;  // leaves jsons[t] empty
      Result<MatchResult> scored = matcher.Score(*ps, *pt, nullptr, context);
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
        cache.GetOrPrepare(*matcher, src, src_fp, context);
    PreparedTablePtr pt =
        cache.GetOrPrepare(*matcher, tgt, tgt_fp, context);
    ASSERT_NE(ps, nullptr);
    ASSERT_NE(pt, nullptr);
    Result<MatchResult> scored = matcher->Score(*ps, *pt, nullptr, context);
    ASSERT_TRUE(scored.ok());
    EXPECT_EQ(ToJson(*scored), ToJson(matcher->Match(src, tgt)));
  }
  EXPECT_EQ(cache.size(), 4u);
}

// A pair artifact built under another thesaurus (another prepare key)
// over the same tables is declined: Score builds its own inline.
TEST(PairArtifactTest, OtherPrepareKeyFallsBackToIdenticalBytes) {
  Thesaurus plain;
  plain.AddSynonymSet({"customer", "client"});
  Thesaurus expanding = plain;
  expanding.AddAbbreviation("cust", "customer");
  const Table src = MakeNamedTable("s", {"cust_name", "cust_city", "total"});
  const Table tgt = MakeNamedTable("t", {"client_name", "client_town", "sum"});
  const CupidMatcher with_plain({}, &plain);
  const CupidMatcher with_expanding({}, &expanding);
  const std::string expected = ToJson(with_expanding.Match(src, tgt));
  ASSERT_NE(ToJson(with_plain.Match(src, tgt)), expected)
      << "the thesauri must disagree on this pair for the test to bite";

  MatchContext context;
  Result<PreparedTablePtr> plain_src = with_plain.Prepare(src, context);
  Result<PreparedTablePtr> plain_tgt = with_plain.Prepare(tgt, context);
  ASSERT_TRUE(plain_src.ok() && plain_tgt.ok());
  Result<PreparedPairPtr> plain_pair =
      with_plain.PreparePair(**plain_src, **plain_tgt, context);
  ASSERT_TRUE(plain_pair.ok());
  ASSERT_NE(*plain_pair, nullptr);

  Result<PreparedTablePtr> ps = with_expanding.Prepare(src, context);
  Result<PreparedTablePtr> pt = with_expanding.Prepare(tgt, context);
  ASSERT_TRUE(ps.ok() && pt.ok());
  Result<MatchResult> scored =
      with_expanding.Score(**ps, **pt, plain_pair->get(), context);
  ASSERT_TRUE(scored.ok());
  EXPECT_EQ(ToJson(*scored), expected);
  // And PreparePair declines the other key's table artifacts.
  Result<PreparedPairPtr> declined =
      with_expanding.PreparePair(**plain_src, **plain_tgt, context);
  ASSERT_TRUE(declined.ok());
  EXPECT_EQ(*declined, nullptr);
}

// Pair artifacts are built once per (pair, family, prepare key) and
// served to every later lookup; a family without a pair stage builds
// none, and pair lookups stay out of the table-artifact stats.
TEST(ArtifactCacheTest, PairArtifactsBuildOncePerPairFamilyAndKey) {
  const DatasetPair& pair = SharedPair();
  const PairFingerprints fp = FingerprintPair(pair);
  const CupidMatcher cupid;
  const JaccardLevenshteinMatcher jl;
  ArtifactCache cache;
  MatchContext context;

  PreparedTablePtr ps =
      cache.GetOrPrepare(cupid, pair.source, fp.source, context);
  PreparedTablePtr pt =
      cache.GetOrPrepare(cupid, pair.target, fp.target, context);
  ASSERT_NE(ps, nullptr);
  ASSERT_NE(pt, nullptr);
  const auto table_stats = cache.StatsSnapshot();

  const uint64_t before = PairArtifactBuilds();
  PreparedPairPtr first =
      cache.GetOrPreparePair(cupid, *ps, fp.source, *pt, fp.target, context);
  PreparedPairPtr second =
      cache.GetOrPreparePair(cupid, *ps, fp.source, *pt, fp.target, context);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get()) << "second lookup rebuilt";
  EXPECT_EQ(PairArtifactBuilds() - before, 1u);
  // The reversed pair is another key.
  PreparedPairPtr reversed =
      cache.GetOrPreparePair(cupid, *pt, fp.target, *ps, fp.source, context);
  ASSERT_NE(reversed, nullptr);
  EXPECT_NE(reversed.get(), first.get());
  EXPECT_EQ(PairArtifactBuilds() - before, 2u);

  PreparedTablePtr jl_src =
      cache.GetOrPrepare(jl, pair.source, fp.source, context);
  PreparedTablePtr jl_tgt =
      cache.GetOrPrepare(jl, pair.target, fp.target, context);
  ASSERT_NE(jl_src, nullptr);
  ASSERT_NE(jl_tgt, nullptr);
  EXPECT_EQ(cache.GetOrPreparePair(jl, *jl_src, fp.source, *jl_tgt,
                                   fp.target, context),
            nullptr);
  EXPECT_EQ(PairArtifactBuilds() - before, 2u);

  const auto stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.at("Cupid").hits, table_stats.at("Cupid").hits);
  EXPECT_EQ(stats.at("Cupid").misses, table_stats.at("Cupid").misses);
  EXPECT_EQ(stats.at("Cupid").builds, table_stats.at("Cupid").builds);
  EXPECT_EQ(cache.size(), 4u);  // table artifacts only

  // The cached pair artifact scores the pair as Match does.
  Result<MatchResult> scored = cupid.Score(*ps, *pt, first.get(), context);
  ASSERT_TRUE(scored.ok());
  EXPECT_EQ(ToJson(*scored), ToJson(cupid.Match(pair.source, pair.target)));
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
