// Ranked-output golden: the exact ranked MatchResult of every family's
// every configuration on every pair of a small fixed fabricated suite,
// digested per family. Recall and MAP read only the top of a ranking,
// so a change to tie order below the ground-truth cut would slip past
// the campaign goldens; this test reads every rank.
//
// Each experiment renders as its "family|config|pair" header followed
// by one "source > target = %.17g" line per match, in rank order, and
// each family's text is folded into a 64-bit FNV-1a digest. The grid
// is Table II's (EmbDI at the race tests' tiny budget) plus the
// selection and filter variants that rank sparse pair subsets (COMA
// SelectPairs, the Similarity Flooding filters) and two matchers whose
// results are merged from several sources before MatchResult::Sort()
// (Ensemble, the approximate matcher).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/param_grid.h"
#include "harness/runner.h"
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

TEST(RankedOutputGoldenTest, EveryFamilyRanksTheSuiteAsPinned) {
  static const Ontology kOntology = GoldenOntology();
  const std::vector<DatasetPair>& suite = GoldenSuite();
  ASSERT_EQ(suite.size(), 12u);

  // Digests and match counts as first recorded, from the comparator
  // sort over Match records.
  const std::map<std::string, std::pair<std::string, size_t>> kExpected = {
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
  };

  std::map<std::string, std::pair<std::string, size_t>> got;
  std::string listing;  // the map literal above, as this build computes it
  for (const MethodFamily& family : GoldenFamilies(&kOntology)) {
    std::string text;
    size_t matches = 0;
    for (const ConfiguredMatcher& cm : family.grid) {
      for (const DatasetPair& pair : suite) {
        Result<MatchResult> result =
            cm.matcher->MatchWithContext(pair.source, pair.target, {});
        ASSERT_TRUE(result.ok()) << family.name << " " << cm.description;
        matches += result->size();
        text += RankedText(family.name + "|" + cm.description + "|" + pair.id,
                           *result);
      }
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(Fnv1a(text)));
    got[family.name] = {digest, matches};
    listing += "{\"" + family.name + "\", {\"" + digest + "\", " +
               std::to_string(matches) + "}},\n";
  }
  EXPECT_EQ(got, kExpected) << listing;
}

}  // namespace
}  // namespace valentine
