// Statistical sanity of the dataset generators: the fabricated
// experiments are only as good as the data distributions under them, so
// verify moments, cardinalities, value formats, and cross-build
// determinism for every source generator.

#include <gtest/gtest.h>

#include <regex>

#include "datasets/chembl.h"
#include "datasets/ing.h"
#include "datasets/magellan.h"
#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "datasets/wikidata.h"
#include "stats/descriptive.h"

namespace valentine {
namespace {

TEST(TpcdiStatsTest, GaussianColumnsHaveDeclaredMoments) {
  Table t = MakeTpcdiProspect(3000, 2026);
  NumericStats income =
      ComputeNumericStats(t.FindColumn("income")->NumericValues());
  EXPECT_NEAR(income.mean, 65000, 2500);
  EXPECT_NEAR(income.stddev, 22000, 2500);
  EXPECT_GE(income.min, 12000);  // clamped floor

  NumericStats credit =
      ComputeNumericStats(t.FindColumn("credit_rating")->NumericValues());
  EXPECT_NEAR(credit.mean, 620, 15);
}

TEST(TpcdiStatsTest, UniformColumnsCoverRange) {
  Table t = MakeTpcdiProspect(3000, 2026);
  NumericStats age = ComputeNumericStats(t.FindColumn("age")->NumericValues());
  EXPECT_EQ(age.min, 18);
  EXPECT_EQ(age.max, 95);
  EXPECT_NEAR(age.mean, (18 + 95) / 2.0, 2.5);
}

TEST(TpcdiStatsTest, PatternColumnsMatchFormat) {
  Table t = MakeTpcdiProspect(200, 2026);
  std::regex phone_re(R"(\(\d{3}\) \d{3}-\d{4})");
  for (const Value& v : t.FindColumn("phone")->values()) {
    EXPECT_TRUE(std::regex_match(v.AsString(), phone_re)) << v.AsString();
  }
  std::regex zip_re(R"(\d{5})");
  for (const Value& v : t.FindColumn("postal_code")->values()) {
    EXPECT_TRUE(std::regex_match(v.AsString(), zip_re)) << v.AsString();
  }
}

TEST(TpcdiStatsTest, IdColumnUnique) {
  Table t = MakeTpcdiProspect(500, 2026);
  EXPECT_EQ(t.FindColumn("agency_id")->DistinctStringSet().size(), 500u);
}

TEST(OpenDataStatsTest, NullableColumnsActuallySparse) {
  Table t = MakeOpenDataTable(1000, 4711);
  double null_rate =
      static_cast<double>(t.FindColumn("architect_firm")->NullCount()) /
      1000.0;
  EXPECT_NEAR(null_rate, 0.35, 0.06);
  EXPECT_EQ(t.FindColumn("permit_number")->NullCount(), 0u);
}

TEST(OpenDataStatsTest, DatesAreIso) {
  Table t = MakeOpenDataTable(150, 4711);
  std::regex date_re(R"(\d{4}-\d{2}-\d{2})");
  for (const Value& v : t.FindColumn("issue_date")->values()) {
    EXPECT_TRUE(std::regex_match(v.AsString(), date_re)) << v.AsString();
  }
}

TEST(ChemblStatsTest, DomainVocabularyPresent) {
  Table t = MakeChemblAssays(500, 99);
  auto organisms = t.FindColumn("assay_organism")->DistinctStringSet();
  EXPECT_TRUE(organisms.count("Homo sapiens"));
  EXPECT_LE(organisms.size(), 12u);  // drawn from a fixed pool
  auto types = t.FindColumn("assay_type")->DistinctStringSet();
  EXPECT_LE(types.size(), 6u);
}

TEST(GeneratorDeterminismTest, SameSeedSameBytes) {
  auto render = [](const Table& t) {
    std::string out;
    for (const Column& c : t.columns()) {
      out += c.name();
      for (const Value& v : c.values()) out.append("|").append(v.AsString());
    }
    return out;
  };
  EXPECT_EQ(render(MakeTpcdiProspect(100, 1)), render(MakeTpcdiProspect(100, 1)));
  EXPECT_EQ(render(MakeOpenDataTable(100, 2)), render(MakeOpenDataTable(100, 2)));
  EXPECT_EQ(render(MakeChemblAssays(100, 3)), render(MakeChemblAssays(100, 3)));
  EXPECT_EQ(render(MakeWikidataSingersBase(100, 4)),
            render(MakeWikidataSingersBase(100, 4)));
  EXPECT_NE(render(MakeTpcdiProspect(100, 1)), render(MakeTpcdiProspect(100, 2)));
}

TEST(GeneratorDeterminismTest, CuratedPairsDeterministic) {
  DatasetPair a = MakeIngPair1(150, 11);
  DatasetPair b = MakeIngPair1(150, 11);
  ASSERT_EQ(a.source.num_rows(), b.source.num_rows());
  for (size_t c = 0; c < a.source.num_columns(); ++c) {
    for (size_t r = 0; r < a.source.num_rows(); ++r) {
      ASSERT_TRUE(a.source.column(c)[r] == b.source.column(c)[r]);
    }
  }
  auto m1 = MakeMagellanPairs(100, 5);
  auto m2 = MakeMagellanPairs(100, 5);
  ASSERT_EQ(m1.size(), m2.size());
  for (size_t p = 0; p < m1.size(); ++p) {
    EXPECT_EQ(m1[p].id, m2[p].id);
    EXPECT_EQ(m1[p].target.num_rows(), m2[p].target.num_rows());
  }
}

TEST(WikidataStatsTest, SixColumnsAlternativelyEncoded) {
  auto pairs = MakeWikidataPairs(200, 7);
  const DatasetPair& u = pairs[0];  // unionable keeps all 20 columns
  // Count GT columns whose target-side value sets are disjoint from the
  // source side (the re-encoded ones).
  size_t re_encoded = 0;
  for (const auto& gt : u.ground_truth) {
    auto src_set = u.source.FindColumn(gt.source_column)->DistinctStringSet();
    size_t shared = 0;
    for (const auto& v :
         u.target.FindColumn(gt.target_column)->DistinctStrings()) {
      shared += src_set.count(v);
    }
    if (shared == 0) ++re_encoded;
  }
  EXPECT_EQ(re_encoded, 6u);  // the paper re-encodes exactly six columns
}

TEST(IngStatsTest, MatchingHashColumnsShareFiniteDomain) {
  DatasetPair p = MakeIngPair1(400, 11);
  auto src_hashes = p.source.FindColumn("task_hash")->DistinctStringSet();
  auto tgt_hashes = p.target.FindColumn("task_hash")->DistinctStringSet();
  EXPECT_LE(src_hashes.size(), 300u);  // the shared 300-hash pool
  size_t shared = 0;
  for (const auto& h : tgt_hashes) shared += src_hashes.count(h);
  EXPECT_GT(shared, tgt_hashes.size() / 2);
  // Decoy hash columns live in a different pool.
  auto decoy = p.source.FindColumn("parent_task_hash")->DistinctStringSet();
  size_t decoy_shared = 0;
  for (const auto& h : decoy) decoy_shared += src_hashes.count(h);
  EXPECT_EQ(decoy_shared, 0u);
}

}  // namespace
}  // namespace valentine
