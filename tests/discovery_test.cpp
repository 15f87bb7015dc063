// Tests for the DiscoveryEngine: table-level joinability/unionability
// search over a small synthetic repository (the §II-B use case).

#include "discovery/discovery.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "datasets/chembl.h"
#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "fabrication/fabricator.h"
#include "matchers/jaccard_levenshtein.h"

namespace valentine {
namespace {

/// A repository with one planted join partner and unrelated tables.
struct Lake {
  DiscoveryEngine engine;
  Table query;

  Lake() {
    Table prospect = MakeTpcdiProspect(200, 2026);
    FabricationOptions fab;
    fab.scenario = Scenario::kJoinable;
    fab.column_overlap = 0.4;
    fab.seed = 4;
    DatasetPair split = FabricateDatasetPair(prospect, fab).ValueOrDie();
    query = split.source;
    query.set_name("query");
    Table partner = split.target;
    partner.set_name("planted_partner");
    EXPECT_TRUE(engine.AddTable(std::move(partner)).ok());
    EXPECT_TRUE(engine.AddTable(MakeOpenDataTable(200, 4711)).ok());
    EXPECT_TRUE(engine.AddTable(MakeChemblAssays(200, 99)).ok());
  }
};

TEST(DiscoveryEngineTest, AddTableValidation) {
  DiscoveryEngine engine;
  EXPECT_FALSE(engine.AddTable(Table("empty")).ok());
  Table t("t");
  Column c("c", DataType::kString);
  c.Append(Value::String("v"));
  ASSERT_TRUE(t.AddColumn(std::move(c)).ok());
  EXPECT_TRUE(engine.AddTable(t).ok());
  EXPECT_FALSE(engine.AddTable(t).ok());  // duplicate name
  EXPECT_EQ(engine.num_tables(), 1u);
}

TEST(DiscoveryEngineTest, FindJoinableRanksPlantedPartnerFirst) {
  Lake lake;
  auto results = lake.engine.FindJoinable(lake.query, 3);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].table_name, "planted_partner");
  EXPECT_GT(results[0].score, 0.5);
  EXPECT_FALSE(results[0].evidence.empty());
}

TEST(DiscoveryEngineTest, FindJoinablePrunesUnrelatedTables) {
  Lake lake;
  auto results = lake.engine.FindJoinable(lake.query, 10);
  // The LSH containment probe should not nominate the chemistry table
  // for a customer-data query... but if it does, it must rank below the
  // planted partner. Assert ordering rather than absence.
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i].score, results[0].score);
  }
}

TEST(DiscoveryEngineTest, FindJoinableRespectsK) {
  Lake lake;
  EXPECT_LE(lake.engine.FindJoinable(lake.query, 1).size(), 1u);
}

TEST(DiscoveryEngineTest, FindUnionableRanksSameSchemaFirst) {
  // A unionable shard of the query's original table must outrank
  // unrelated tables.
  Table prospect = MakeTpcdiProspect(200, 2026);
  FabricationOptions fab;
  fab.scenario = Scenario::kUnionable;
  fab.row_overlap = 0.3;
  fab.seed = 5;
  DatasetPair split = FabricateDatasetPair(prospect, fab).ValueOrDie();

  DiscoveryEngine engine;
  Table sibling = split.target;
  sibling.set_name("prospect_sibling");
  ASSERT_TRUE(engine.AddTable(std::move(sibling)).ok());
  ASSERT_TRUE(engine.AddTable(MakeOpenDataTable(150, 4711)).ok());
  ASSERT_TRUE(engine.AddTable(MakeChemblAssays(150, 99)).ok());

  Table query = split.source;
  query.set_name("query");
  auto results = engine.FindUnionable(query, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].table_name, "prospect_sibling");
  EXPECT_GT(results[0].score, results[1].score);
}

TEST(DiscoveryEngineTest, UnionScorePenalizesArityMismatch) {
  // Two repository tables with identical matching columns, one padded
  // with many extras: the same-arity table must score higher.
  auto make = [](const std::string& name, int extra_cols) {
    Table t(name);
    for (const char* col : {"city", "income"}) {
      Column c(col, DataType::kString);
      for (int i = 0; i < 10; ++i) {
        c.Append(Value::String(std::string(col) + std::to_string(i)));
      }
      (void)t.AddColumn(std::move(c));
    }
    for (int e = 0; e < extra_cols; ++e) {
      Column c("extra_" + std::to_string(e), DataType::kInt64);
      for (int i = 0; i < 10; ++i) c.Append(Value::Int(e * 100 + i));
      (void)t.AddColumn(std::move(c));
    }
    return t;
  };
  DiscoveryEngine engine;
  ASSERT_TRUE(engine.AddTable(make("same_arity", 0)).ok());
  ASSERT_TRUE(engine.AddTable(make("wide", 10)).ok());
  auto results = engine.FindUnionable(make("query", 0), 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].table_name, "same_arity");
}

TEST(DiscoveryEngineTest, CustomMatcherInjected) {
  DiscoveryOptions opt;
  opt.matcher = std::make_unique<JaccardLevenshteinMatcher>();
  DiscoveryEngine engine(std::move(opt));
  Table t("t");
  Column c("c", DataType::kString);
  c.Append(Value::String("shared"));
  ASSERT_TRUE(t.AddColumn(std::move(c)).ok());
  ASSERT_TRUE(engine.AddTable(t).ok());
  Table query = t;
  query.set_name("q");
  auto results = engine.FindUnionable(query, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].score, 1.0);  // identical single column
}

TEST(DiscoveryEngineTest, AcceptsUnitSeparatorInNames) {
  DiscoveryEngine engine;
  // U+001F is an ordinary name character, in table and column names.
  Table odd_table(std::string("evil\x1f") + "twin");
  Column c1("c", DataType::kString);
  c1.Append(Value::String("v"));
  ASSERT_TRUE(odd_table.AddColumn(std::move(c1)).ok());
  EXPECT_TRUE(engine.AddTable(odd_table).ok());

  Table odd_column("ok_table");
  Column c2(std::string("col\x1f") + "umn", DataType::kString);
  c2.Append(Value::String("v"));
  ASSERT_TRUE(odd_column.AddColumn(std::move(c2)).ok());
  EXPECT_TRUE(engine.AddTable(odd_column).ok());
  EXPECT_EQ(engine.num_tables(), 2u);

  // Both are found by a query with the same values.
  Table query("q");
  Column c3("c", DataType::kString);
  c3.Append(Value::String("v"));
  ASSERT_TRUE(query.AddColumn(std::move(c3)).ok());
  std::set<std::string> found;
  for (const DiscoveryResult& r : engine.FindUnionable(query, 2)) {
    found.insert(r.table_name);
  }
  EXPECT_EQ(found, (std::set<std::string>{odd_table.name(), "ok_table"}));
}

TEST(DiscoveryEngineTest, RejectsDuplicateColumnNames) {
  DiscoveryEngine engine;
  Table t("dup_cols");
  Column a("same", DataType::kString);
  a.Append(Value::String("x"));
  Column b("same", DataType::kString);
  b.Append(Value::String("y"));
  ASSERT_TRUE(t.AddColumn(std::move(a)).ok());
  ASSERT_TRUE(t.AddColumn(std::move(b)).ok());
  // Two columns with one name would collide on the same LSH key; the
  // engine must reject the table atomically (no partial registration).
  EXPECT_EQ(engine.AddTable(t).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.num_tables(), 0u);
}

TEST(DiscoveryEngineTest, RemoveTableErasesItFromResults) {
  Lake lake;
  ASSERT_TRUE(lake.engine.RemoveTable("planted_partner").ok());
  EXPECT_EQ(lake.engine.num_tables(), 2u);
  for (const auto& r : lake.engine.FindJoinable(lake.query, 10)) {
    EXPECT_NE(r.table_name, "planted_partner");
  }
  for (const auto& r : lake.engine.FindUnionable(lake.query, 10)) {
    EXPECT_NE(r.table_name, "planted_partner");
  }
  EXPECT_EQ(lake.engine.RemoveTable("planted_partner").code(),
            StatusCode::kNotFound);

  // Re-adding after removal restores it to the top rank.
  Table prospect = MakeTpcdiProspect(200, 2026);
  FabricationOptions fab;
  fab.scenario = Scenario::kJoinable;
  fab.column_overlap = 0.4;
  fab.seed = 4;
  DatasetPair split = FabricateDatasetPair(prospect, fab).ValueOrDie();
  Table partner = split.target;
  partner.set_name("planted_partner");
  ASSERT_TRUE(lake.engine.AddTable(std::move(partner)).ok());
  auto results = lake.engine.FindJoinable(lake.query, 3);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].table_name, "planted_partner");
}

TEST(DiscoveryEngineTest, LshPathMatchesExhaustiveTopK) {
  // The LSH candidate front-end is a recall optimization, not a scoring
  // change: on the Lake repository both paths must produce identical
  // ranked lists for both query types.
  DiscoveryEngine engine;
  Table prospect = MakeTpcdiProspect(200, 2026);
  FabricationOptions fab;
  fab.scenario = Scenario::kJoinable;
  fab.column_overlap = 0.4;
  fab.seed = 4;
  DatasetPair split = FabricateDatasetPair(prospect, fab).ValueOrDie();
  Table partner = split.target;
  partner.set_name("planted_partner");
  ASSERT_TRUE(engine.AddTable(std::move(partner)).ok());
  ASSERT_TRUE(engine.AddTable(MakeOpenDataTable(200, 4711)).ok());
  ASSERT_TRUE(engine.AddTable(MakeChemblAssays(200, 99)).ok());
  Table query = split.source;
  query.set_name("query");
  auto run = [&](const CandidateIndex& index) {
    std::string out;
    for (DiscoveryMode mode :
         {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
      const std::vector<DiscoveryResult> results =
          engine.Find(index, mode, query, 3).ValueOrDie();
      for (const auto& r : results) {
        out += (mode == DiscoveryMode::kJoinable ? "J:" : "U:") +
               r.table_name + "=" + std::to_string(r.score) + ";";
      }
    }
    return out;
  };
  std::string lsh = run(engine.candidate_index());
  std::string exhaustive = run(ExhaustiveCandidateIndex());
  EXPECT_FALSE(lsh.empty());
  // Top-ranked results must agree exactly; LSH may prune tail tables
  // the exhaustive path scores near zero, but everything LSH surfaces
  // must appear in the exhaustive output with the same score.
  std::istringstream lsh_items(lsh);
  std::string item;
  while (std::getline(lsh_items, item, ';')) {
    EXPECT_NE(exhaustive.find(item + ";"), std::string::npos)
        << "LSH produced " << item << " absent from exhaustive output "
        << exhaustive;
  }
  EXPECT_EQ(lsh.substr(0, lsh.find(';')),
            exhaustive.substr(0, exhaustive.find(';')));
}

TEST(DiscoveryEngineTest, EmptyRepository) {
  DiscoveryEngine engine;
  Table query("q");
  Column c("c", DataType::kString);
  c.Append(Value::String("v"));
  ASSERT_TRUE(query.AddColumn(std::move(c)).ok());
  EXPECT_TRUE(engine.FindJoinable(query, 5).empty());
  EXPECT_TRUE(engine.FindUnionable(query, 5).empty());
}

}  // namespace
}  // namespace valentine
