#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "datasets/tpcdi.h"
#include "harness/json_export.h"
#include "harness/runner.h"
#include "obs/export.h"

namespace valentine {
namespace {

TEST(ParallelRunnerTest, MatchesSequentialResults) {
  Table original = MakeTpcdiProspect(60, 71);
  PairSuiteOptions opt;
  opt.row_overlaps = {0.5};
  opt.column_overlaps = {0.5};
  auto suite = BuildFabricatedSuite(original, opt);
  MethodFamily family = JaccardLevenshteinFamily();

  auto sequential = RunFamilyOnSuite(family, suite);
  auto parallel = RunFamilyOnSuite(family, suite, {}, 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].pair_id, parallel[i].pair_id);
    EXPECT_DOUBLE_EQ(sequential[i].best_recall, parallel[i].best_recall);
    EXPECT_EQ(sequential[i].best_config, parallel[i].best_config);
    EXPECT_EQ(sequential[i].runs, parallel[i].runs);
  }
}

TEST(ParallelRunnerTest, SharedCupidCacheIsThreadSafe) {
  Table original = MakeTpcdiProspect(40, 72);
  PairSuiteOptions opt;
  opt.row_overlaps = {0.3, 0.5, 0.8};
  opt.column_overlaps = {0.5};
  auto suite = BuildFabricatedSuite(original, opt);
  // A small Cupid grid shares matcher instances across worker threads.
  MethodFamily family{"Cupid", {CupidFamily().grid[0], CupidFamily().grid[50]}};
  auto outcomes = RunFamilyOnSuite(family, suite, {}, 8);
  EXPECT_EQ(outcomes.size(), suite.size());
  for (const auto& o : outcomes) {
    EXPECT_GE(o.best_recall, 0.0);
    EXPECT_LE(o.best_recall, 1.0);
  }
}

TEST(ParallelRunnerTest, SingleThreadRunsInline) {
  Table original = MakeTpcdiProspect(30, 73);
  PairSuiteOptions opt;
  opt.row_overlaps = {0.5};
  opt.column_overlaps = {0.5};
  opt.schema_noise_variants = false;
  opt.instance_noise_variants = false;
  auto suite = BuildFabricatedSuite(original, opt);
  auto outcomes = RunFamilyOnSuite(SimilarityFloodingFamily(), suite, {}, 1);
  EXPECT_EQ(outcomes.size(), suite.size());
}

TEST(JsonExportTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("with \"quote\""), "with \\\"quote\\\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string("ctrl\x01") + "x"), "ctrl\\u0001x");
}

TEST(JsonExportTest, ExperimentResultRoundTrippableShape) {
  ExperimentResult r;
  r.pair_id = "pair\"1\"";
  r.scenario = Scenario::kJoinable;
  r.method = "COMA";
  r.config = "th=0";
  r.recall_at_gt = 0.75;
  r.map = 0.5;
  r.runtime_ms = 12.5;
  r.ground_truth_size = 8;
  std::string json = ToJson(r);
  EXPECT_NE(json.find("\"pair_id\":\"pair\\\"1\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"Joinable\""), std::string::npos);
  EXPECT_NE(json.find("\"recall_at_gt\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"ground_truth_size\":8"), std::string::npos);
}

TEST(JsonExportTest, ArraysWellFormed) {
  std::vector<ExperimentResult> results(2);
  results[0].method = "A";
  results[1].method = "B";
  std::string json = ToJson(results);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("},{"), std::string::npos);
  EXPECT_EQ(ToJson(std::vector<ExperimentResult>{}), "[]");
}

TEST(JsonExportTest, MatchResultJson) {
  MatchResult r;
  r.Add({"s", "a"}, {"t", "b"}, 0.5);
  std::string json = ToJson(r);
  EXPECT_NE(json.find("\"source\":\"s.a\""), std::string::npos);
  EXPECT_NE(json.find("\"score\":0.5"), std::string::npos);
}

TEST(JsonExportTest, OutcomesJson) {
  FamilyPairOutcome o;
  o.family = "Cupid";
  o.pair_id = "p";
  o.scenario = Scenario::kUnionable;
  o.best_recall = 1.0;
  o.best_config = "w=0.2";
  o.total_ms = 3.5;
  o.runs = 96;
  std::string json = ToJson(std::vector<FamilyPairOutcome>{o});
  EXPECT_NE(json.find("\"family\":\"Cupid\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":96"), std::string::npos);
}

TEST(JsonExportTest, WriteFile) {
  std::string path = ::testing::TempDir() + "/valentine_results.json";
  ASSERT_TRUE(WriteTextFile("[1,2,3]", path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "[1,2,3]");
  std::remove(path.c_str());
}

TEST(JsonExportTest, WriteFileToBadPathFails) {
  EXPECT_FALSE(WriteTextFile("x", "/nonexistent/dir/file.json").ok());
}

}  // namespace
}  // namespace valentine
