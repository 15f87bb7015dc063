// Ranked-output golden: the exact ranked MatchResult of every family's
// every configuration on every pair of a small fixed fabricated suite,
// digested per family. Recall and MAP read only the top of a ranking,
// so a change to tie order below the ground-truth cut would slip past
// the campaign goldens; this test reads every rank.
//
// Each experiment renders as its "family|config|pair" header followed
// by one "source > target = %.17g" line per match, in rank order, and
// each family's text is folded into a 64-bit FNV-1a digest, once from
// Match and once from Score over table and pair artifacts that an
// ArtifactCache shares across each family's configurations. The grid
// is Table II's (EmbDI at the race tests' tiny budget) plus the
// selection and filter variants that rank sparse pair subsets (COMA
// SelectPairs, the Similarity Flooding filters), Ensemble, whose
// results are merged from several sources before MatchResult::Sort(),
// and the approximate matcher, estimating every pair and pruned by LSH
// bands at 16x8 and 64x2 with min_jaccard 0 and 0.3.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/param_grid.h"
#include "harness/runner.h"
#include "matchers/artifact_cache.h"
#include "matchers/coma.h"
#include "matchers/embdi.h"
#include "matchers/ensemble.h"
#include "matchers/similarity_flooding.h"
#include "scaling/approximate_matcher.h"

namespace valentine {
namespace {

Ontology GoldenOntology() {
  Ontology o;
  size_t root = o.AddClass("root", {"entity"});
  o.AddSubclass(root, "person", {"person", "customer", "prospect"});
  o.AddSubclass(root, "address", {"address", "city", "country"});
  return o;
}

const std::vector<DatasetPair>& GoldenSuite() {
  static const std::vector<DatasetPair> kSuite = [] {
    PairSuiteOptions opt;
    opt.row_overlaps = {0.5};
    opt.column_overlaps = {0.5};
    opt.instance_noise_variants = false;
    return BuildFabricatedSuite(MakeTpcdiProspect(30, 99), opt);
  }();
  return kSuite;
}

std::vector<MethodFamily> GoldenFamilies(const Ontology* ontology) {
  std::vector<MethodFamily> families;
  for (MethodFamily& family : AllFamilies(ontology)) {
    if (family.name != "EmbDI") families.push_back(std::move(family));
  }

  EmbdiOptions tiny;
  tiny.dimensions = 8;
  tiny.walks_per_node = 1;
  tiny.epochs = 1;
  tiny.sentence_length = 20;
  tiny.max_rows = 40;
  families.push_back(
      {"EmbDI", {{"word2vec tiny", std::make_shared<EmbdiMatcher>(tiny)}}});

  MethodFamily sf{"SimilarityFlooding-filters", {}};
  for (SfFilter filter :
       {SfFilter::kStableMarriage, SfFilter::kPerfectionist}) {
    SimilarityFloodingOptions opt;
    opt.formula = SfFormula::kC;
    opt.filter = filter;
    sf.grid.push_back({"filter=" + std::to_string(static_cast<int>(filter)),
                       std::make_shared<SimilarityFloodingMatcher>(opt)});
  }
  families.push_back(std::move(sf));

  MethodFamily coma{"COMA-selections", {}};
  for (ComaStrategy strategy :
       {ComaStrategy::kSchema, ComaStrategy::kInstances}) {
    for (ComaSelection selection :
         {ComaSelection::kMaxN, ComaSelection::kMaxDelta,
          ComaSelection::kOneToOne}) {
      ComaOptions opt;
      opt.strategy = strategy;
      opt.selection = selection;
      opt.threshold = 0.2;
      coma.grid.push_back(
          {"strategy=" + std::to_string(static_cast<int>(strategy)) +
               " selection=" + std::to_string(static_cast<int>(selection)),
           std::make_shared<ComaMatcher>(opt)});
    }
  }
  families.push_back(std::move(coma));

  MethodFamily merged{"Merged", {}};
  std::vector<MatcherPtr> members;
  members.push_back(std::make_unique<ComaMatcher>());
  members.push_back(std::make_unique<SimilarityFloodingMatcher>());
  merged.grid.push_back(
      {"ensemble rrf", std::make_shared<EnsembleMatcher>(std::move(members))});
  ApproximateOverlapOptions approx;
  approx.estimate_all_pairs = true;
  merged.grid.push_back({"approx all pairs",
                         std::make_shared<ApproximateOverlapMatcher>(approx)});
  families.push_back(std::move(merged));

  MethodFamily pruned{"ApproxOverlap-pruned", {}};
  for (const auto& [bands, rows] :
       {std::pair<size_t, size_t>{16, 8}, std::pair<size_t, size_t>{64, 2}}) {
    for (double min_jaccard : {0.0, 0.3}) {
      ApproximateOverlapOptions opt;
      opt.lsh.bands = bands;
      opt.lsh.rows_per_band = rows;
      opt.min_jaccard = min_jaccard;
      char description[64];
      std::snprintf(description, sizeof(description),
                    "%zux%zu min_jaccard=%g", bands, rows, min_jaccard);
      pruned.grid.push_back(
          {description, std::make_shared<ApproximateOverlapMatcher>(opt)});
    }
  }
  families.push_back(std::move(pruned));
  return families;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string RankedText(const std::string& header, const MatchResult& result) {
  std::string out = header + "\n";
  char score[40];
  for (const Match& m : result.matches()) {
    std::snprintf(score, sizeof(score), "%.17g", m.score);
    out += m.source.ToString() + " > " + m.target.ToString() + " = " + score +
           "\n";
  }
  return out;
}

/// Ranks every configuration x pair of `suite` through `rank` and
/// returns each family's (digest, match count), plus the map literal
/// below as this build computes it.
using Digests = std::map<std::string, std::pair<std::string, size_t>>;
using RankFn = std::function<Result<MatchResult>(
    const MethodFamily&, const ConfiguredMatcher&, size_t pair_index)>;

Digests DigestFamilies(const std::vector<MethodFamily>& families,
                       const std::vector<DatasetPair>& suite,
                       const RankFn& rank, std::string* listing) {
  Digests got;
  for (const MethodFamily& family : families) {
    std::string text;
    size_t matches = 0;
    for (const ConfiguredMatcher& cm : family.grid) {
      for (size_t p = 0; p < suite.size(); ++p) {
        Result<MatchResult> result = rank(family, cm, p);
        EXPECT_TRUE(result.ok()) << family.name << " " << cm.description;
        if (!result.ok()) continue;
        matches += result->size();
        text += RankedText(
            family.name + "|" + cm.description + "|" + suite[p].id, *result);
      }
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(Fnv1a(text)));
    got[family.name] = {digest, matches};
    *listing += "{\"" + family.name + "\", {\"" + digest + "\", " +
                std::to_string(matches) + "}},\n";
  }
  return got;
}

TEST(RankedOutputGoldenTest, EveryFamilyRanksTheSuiteAsPinned) {
  static const Ontology kOntology = GoldenOntology();
  const std::vector<DatasetPair>& suite = GoldenSuite();
  ASSERT_EQ(suite.size(), 12u);

  // Digests and match counts as first recorded, from the comparator
  // sort over Match records.
  const Digests kExpected = {
      {"Cupid", {"71d13dbf54e1b8db", 354048}},
      {"SimilarityFlooding", {"740a0819bb648597", 3688}},
      {"COMA", {"f180c0c7ec2369f0", 7376}},
      {"Distribution#1", {"896c2284bbe82800", 1280}},
      {"Distribution#2", {"ea185e7426ba1313", 1929}},
      {"SemProp", {"052bee4305a8080d", 2574}},
      {"JaccardLevenshtein", {"d79d169e025e0bfa", 18440}},
      {"EmbDI", {"3ad91de5296fe2cc", 3688}},
      {"SimilarityFlooding-filters", {"3ad529b586a192b5", 345}},
      {"COMA-selections", {"e57054139e804655", 1351}},
      {"Merged", {"223bd8e172be795e", 7376}},
      {"ApproxOverlap-pruned", {"e303af328283bc43", 512}},
  };
  const std::vector<MethodFamily> families = GoldenFamilies(&kOntology);

  std::string listing;
  EXPECT_EQ(DigestFamilies(families, suite,
                           [&](const MethodFamily&,
                               const ConfiguredMatcher& cm, size_t p) {
                             return cm.matcher->MatchWithContext(
                                 suite[p].source, suite[p].target, {});
                           },
                           &listing),
            kExpected)
      << listing;

  // Prepare, PreparePair and Score, with every artifact built once per
  // family and shared by all its configurations, as a campaign does.
  const std::vector<PairFingerprints> fingerprints = FingerprintSuite(suite, 1);
  std::map<std::string, ArtifactCache> caches;  // one per family
  listing.clear();
  EXPECT_EQ(
      DigestFamilies(
          families, suite,
          [&](const MethodFamily& family, const ConfiguredMatcher& cm,
              size_t p) -> Result<MatchResult> {
            ArtifactCache& cache = caches[family.name];
            const ColumnMatcher& m = *cm.matcher;
            const MatchContext context;
            PreparedTablePtr ps = cache.GetOrPrepare(
                m, suite[p].source, fingerprints[p].source, context);
            PreparedTablePtr pt = cache.GetOrPrepare(
                m, suite[p].target, fingerprints[p].target, context);
            if (ps == nullptr || pt == nullptr) {
              return Status::Internal("prepare failed");
            }
            PreparedPairPtr pp =
                cache.GetOrPreparePair(m, *ps, fingerprints[p].source, *pt,
                                       fingerprints[p].target, context);
            return m.Score(*ps, *pt, pp.get(), context);
          },
          &listing),
      kExpected)
      << listing;
}

}  // namespace
}  // namespace valentine
