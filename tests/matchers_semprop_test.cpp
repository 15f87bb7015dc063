#include "matchers/semprop.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "datasets/chembl.h"
#include "harness/json_export.h"

namespace valentine {
namespace {

Table MakeValuedTable(const std::string& name,
                      std::vector<std::pair<std::string,
                                            std::vector<std::string>>> cols) {
  Table t(name);
  for (auto& [col_name, values] : cols) {
    Column c(col_name, DataType::kString);
    for (auto& v : values) c.Append(Value::String(std::move(v)));
    EXPECT_TRUE(t.AddColumn(std::move(c)).ok());
  }
  return t;
}

Ontology SimpleOntology() {
  Ontology o;
  size_t root = o.AddClass("root", {"entity"});
  o.AddSubclass(root, "organism", {"organism", "assay organism"});
  o.AddSubclass(root, "journal", {"journal", "publication"});
  return o;
}

TEST(SemPropTest, LinksNamesToOntologyClasses) {
  Ontology o = SimpleOntology();
  SemPropMatcher m(&o);
  auto [cls, sim] = m.LinkToOntology("assay_organism");
  ASSERT_NE(cls, static_cast<size_t>(-1));
  EXPECT_EQ(o.cls(cls).name, "organism");
  EXPECT_GT(sim, 0.5);
}

TEST(SemPropTest, NoOntologyMeansNoSemanticLinks) {
  SemPropMatcher m(nullptr);
  auto [cls, sim] = m.LinkToOntology("assay_organism");
  EXPECT_EQ(cls, static_cast<size_t>(-1));
  EXPECT_DOUBLE_EQ(sim, 0.0);
}

TEST(SemPropTest, UnrelatedNameFailsThreshold) {
  Ontology o = SimpleOntology();
  SemPropOptions opt;
  opt.semantic_threshold = 0.9;
  SemPropMatcher m(&o, opt);
  auto [cls, sim] = m.LinkToOntology("zzqqxx");
  EXPECT_EQ(cls, static_cast<size_t>(-1));
}

TEST(SemPropTest, SemanticStageRelatesLinkedColumns) {
  Ontology o = SimpleOntology();
  Table src = MakeValuedTable("s", {{"organism", {"human", "mouse"}},
                                    {"journal", {"nature", "science"}}});
  Table tgt = MakeValuedTable("t", {{"assay_organism", {"rat", "dog"}},
                                    {"publication", {"cell", "jmc"}}});
  SemPropOptions opt;
  opt.minhash_threshold = 0.99;  // disable the syntactic stage
  SemPropMatcher m(&o, opt);
  MatchResult r = m.Match(src, tgt);
  ASSERT_GE(r.size(), 2u);
  // Top matches pair columns linked to the same class.
  EXPECT_EQ(r[0].source.column == "organism",
            r[0].target.column == "assay_organism");
}

TEST(SemPropTest, SyntacticFallbackOnValueOverlap) {
  // No ontology: only MinHash value overlap can produce matches.
  std::vector<std::string> shared;
  for (int i = 0; i < 50; ++i) shared.push_back("v" + std::to_string(i));
  Table src = MakeValuedTable("s", {{"left", std::vector<std::string>(shared)}});
  Table tgt = MakeValuedTable("t", {{"right", std::vector<std::string>(shared)}});
  SemPropMatcher m(nullptr);
  MatchResult r = m.Match(src, tgt);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_GT(r[0].score, 0.3);
}

TEST(SemPropTest, SyntacticFallbackRespectsThreshold) {
  Table src = MakeValuedTable("s", {{"left", {"a", "b", "c"}}});
  Table tgt = MakeValuedTable("t", {{"right", {"x", "y", "z"}}});
  SemPropMatcher m(nullptr);
  MatchResult r = m.Match(src, tgt);
  EXPECT_TRUE(r.empty());  // no overlap, no ontology -> nothing clears
}

TEST(SemPropTest, CoherenceGateSuppressesSparseLinks) {
  Ontology o = SimpleOntology();
  // Only 1 of 4 columns links to the ontology: coherence 0.25 < 0.5.
  Table src = MakeValuedTable("s", {{"organism", {"human"}},
                                    {"qqq", {"1"}},
                                    {"www", {"2"}},
                                    {"eee", {"3"}}});
  Table tgt = src;
  tgt.set_name("t");
  SemPropOptions opt;
  opt.coherent_group_threshold = 0.5;
  opt.minhash_threshold = 0.99;  // isolate the semantic stage
  // With value overlap disabled and incoherent links, only the lucky
  // syntactic identity matches would remain; threshold 0.99 blocks all
  // but identical sets (these ARE identical, so allow them) — use
  // disjoint targets instead.
  Table tgt2 = MakeValuedTable("t", {{"assay_organism", {"rat"}},
                                     {"rrr", {"9"}},
                                     {"ttt", {"8"}},
                                     {"yyy", {"7"}}});
  SemPropMatcher m(&o, opt);
  MatchResult r = m.Match(src, tgt2);
  EXPECT_TRUE(r.empty());  // semantic stage gated off by coherence
}

// The semantic threshold is a score-stage cutoff: matchers that differ
// only in it share one prepare key, and an artifact pair prepared under
// one threshold scores to each matcher's own Match bytes.
TEST(SemPropTest, SemanticThresholdIsAppliedAtScore) {
  Ontology efo = MakeEfoLikeOntology();
  Table assays = MakeChemblAssays(60, 99);
  Table other = MakeChemblAssays(60, 7);
  other.set_name("other");
  SemPropOptions prepare_opt;
  prepare_opt.semantic_threshold = 0.5;
  SemPropMatcher preparer(&efo, prepare_opt);
  MatchContext context;
  Result<PreparedTablePtr> ps = preparer.Prepare(assays, nullptr, context);
  Result<PreparedTablePtr> pt = preparer.Prepare(other, nullptr, context);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(pt.ok());

  std::set<std::string> outputs;
  for (double threshold : {0.4, 0.5, 0.6}) {
    SemPropOptions opt;
    opt.semantic_threshold = threshold;
    SemPropMatcher m(&efo, opt);
    EXPECT_EQ(m.PrepareKey(), preparer.PrepareKey()) << threshold;
    const std::string expected = ToJson(m.Match(assays, other));
    Result<MatchResult> scored = m.Score(**ps, **pt, nullptr, context);
    ASSERT_TRUE(scored.ok()) << threshold;
    EXPECT_EQ(ToJson(*scored), expected) << threshold;
    outputs.insert(expected);
  }
  EXPECT_EQ(outputs.size(), 3u)
      << "the thresholds must disagree on this pair for the test to bite";
}

TEST(SemPropTest, MetadataDeclared) {
  SemPropMatcher m(nullptr);
  EXPECT_EQ(m.Name(), "SemProp");
  EXPECT_EQ(m.Category(), MatcherCategory::kHybrid);
}

TEST(SemPropTest, WorksOnChemblWithEfoOntology) {
  Ontology efo = MakeEfoLikeOntology();
  Table assays = MakeChemblAssays(100, 99);
  SemPropMatcher m(&efo);
  MatchResult r = m.Match(assays, assays);
  EXPECT_FALSE(r.empty());
  // Self-match: some identical column should appear near the top.
  bool identity_high = false;
  for (size_t i = 0; i < std::min<size_t>(r.size(), 10); ++i) {
    if (r[i].source.column == r[i].target.column) identity_high = true;
  }
  EXPECT_TRUE(identity_high);
}

}  // namespace
}  // namespace valentine
