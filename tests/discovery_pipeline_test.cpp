// Tests for the staged Retrieve → Enrich → Rerank discovery pipeline
// (DESIGN.md §14): per-stage and end-to-end byte-identity against an
// inline reimplementation of the pre-split monolithic engine, stage
// span/metric emission, the fallback accounting and the explain
// channel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datasets/chembl.h"
#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "discovery/candidate_index.h"
#include "discovery/discovery.h"
#include "discovery/enrich.h"
#include "discovery/repository.h"
#include "discovery/rerank.h"
#include "fabrication/fabricator.h"
#include "matchers/coma.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace valentine {
namespace {

std::string Num(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

/// Full-fidelity serialization of a result list: any divergence in
/// ranking, score, or evidence shows up as a byte difference.
std::string Serialize(const std::vector<DiscoveryResult>& results) {
  std::string out;
  for (const DiscoveryResult& r : results) {
    out += r.table_name + "=" + Num(r.score) + "[";
    for (const Match& m : r.evidence) {
      out += m.source.ToString() + "~" + m.target.ToString() + ":" +
             Num(m.score) + ";";
    }
    out += "]\n";
  }
  return out;
}

/// The pre-split DiscoveryEngine's scoring + aggregation, reimplemented
/// inline as the golden reference: score every repository table with
/// the monolithic matcher, aggregate per mode, sort by (score desc,
/// name asc), truncate to k. The staged pipeline must reproduce these
/// bytes exactly.
std::vector<DiscoveryResult> MonolithReference(
    const ColumnMatcher& matcher, const std::vector<Table>& tables,
    const Table& query, DiscoveryMode mode, size_t k,
    size_t union_evidence_columns = 3) {
  std::vector<DiscoveryResult> results;
  for (const Table& t : tables) {
    MatchResult ranked = matcher.Match(query, t);
    DiscoveryResult r;
    r.table_name = t.name();
    if (mode == DiscoveryMode::kJoinable) {
      if (!ranked.empty()) {
        r.score = ranked[0].score;
        r.evidence = ranked.TopK(3);
      }
    } else {
      std::map<std::string, Match> best_per_column;
      for (const Match& m : ranked.matches()) {
        auto it = best_per_column.find(m.source.column);
        if (it == best_per_column.end() || m.score > it->second.score) {
          best_per_column[m.source.column] = m;
        }
      }
      std::vector<Match> bests;
      for (auto& [col, m] : best_per_column) bests.push_back(m);
      std::sort(bests.begin(), bests.end(), [](const Match& a,
                                               const Match& b) {
        return a.score > b.score;
      });
      size_t evidence_n = std::min<size_t>(union_evidence_columns,
                                           bests.size());
      if (evidence_n > 0) {
        double total = 0.0;
        for (size_t i = 0; i < evidence_n; ++i) {
          total += bests[i].score;
          r.evidence.push_back(bests[i]);
        }
        double arity = static_cast<double>(
                           std::min(query.num_columns(), t.num_columns())) /
                       static_cast<double>(
                           std::max(query.num_columns(), t.num_columns()));
        r.score = (total / static_cast<double>(evidence_n)) * arity;
      }
    }
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const DiscoveryResult& a, const DiscoveryResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.table_name < b.table_name;
            });
  if (results.size() > k) results.resize(k);
  return results;
}

/// A scenario fixture: one fabricated partner planted among unrelated
/// tables, plus the split query.
struct ScenarioLake {
  std::vector<Table> tables;
  Table query;
};

ScenarioLake MakeScenarioLake(Scenario scenario) {
  Table prospect = MakeTpcdiProspect(120, 2026);
  FabricationOptions fab;
  fab.scenario = scenario;
  fab.seed = 7;
  DatasetPair split = FabricateDatasetPair(prospect, fab).ValueOrDie();
  ScenarioLake lake;
  lake.query = split.source;
  lake.query.set_name("query");
  Table partner = split.target;
  partner.set_name("planted_partner");
  lake.tables.push_back(std::move(partner));
  lake.tables.push_back(MakeOpenDataTable(120, 4711));
  lake.tables.push_back(MakeChemblAssays(120, 99));
  return lake;
}

const ComaMatcher& ReferenceMatcher() {
  static const ComaMatcher* matcher = [] {
    ComaOptions opt;
    opt.strategy = ComaStrategy::kInstances;
    return new ComaMatcher(opt);
  }();
  return *matcher;
}

// ---------------------------------------------------------------------------
// End-to-end byte-identity: staged pipeline == monolith golden, all
// four fabrication scenarios, both modes.

TEST(DiscoveryPipelineTest, StagedExhaustiveMatchesMonolithAllScenarios) {
  for (Scenario scenario :
       {Scenario::kUnionable, Scenario::kViewUnionable, Scenario::kJoinable,
        Scenario::kSemanticallyJoinable}) {
    ScenarioLake lake = MakeScenarioLake(scenario);
    DiscoveryEngine engine;
    for (const Table& t : lake.tables) {
      ASSERT_TRUE(engine.AddTable(t).ok());
    }
    const ExhaustiveCandidateIndex exhaustive;
    for (DiscoveryMode mode :
         {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
      std::vector<DiscoveryResult> golden = MonolithReference(
          ReferenceMatcher(), lake.tables, lake.query, mode, 5);
      Result<std::vector<DiscoveryResult>> staged =
          engine.Find(exhaustive, mode, lake.query, 5);
      ASSERT_TRUE(staged.ok());
      EXPECT_EQ(Serialize(staged.ValueOrDie()), Serialize(golden))
          << "scenario=" << ScenarioName(scenario)
          << " mode=" << DiscoveryModeName(mode);
    }
  }
}

TEST(DiscoveryPipelineTest, StagedLshSubsetOfMonolithAllScenarios) {
  // The LSH front-end prunes candidates but never alters scores: every
  // result it produces must appear in the monolith golden with
  // identical bytes, and the top result must agree exactly.
  for (Scenario scenario :
       {Scenario::kUnionable, Scenario::kViewUnionable, Scenario::kJoinable,
        Scenario::kSemanticallyJoinable}) {
    ScenarioLake lake = MakeScenarioLake(scenario);
    DiscoveryEngine engine;  // default: LSH both modes
    for (const Table& t : lake.tables) {
      ASSERT_TRUE(engine.AddTable(t).ok());
    }
    for (DiscoveryMode mode :
         {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
      std::string golden = Serialize(MonolithReference(
          ReferenceMatcher(), lake.tables, lake.query, mode, 5));
      std::vector<DiscoveryResult> staged =
          mode == DiscoveryMode::kJoinable
              ? engine.FindJoinable(lake.query, 5)
              : engine.FindUnionable(lake.query, 5);
      ASSERT_FALSE(staged.empty())
          << "scenario=" << ScenarioName(scenario)
          << " mode=" << DiscoveryModeName(mode);
      std::string staged_bytes = Serialize(staged);
      std::istringstream lines(staged_bytes);
      std::string line;
      while (std::getline(lines, line)) {
        EXPECT_NE(golden.find(line + "\n"), std::string::npos)
            << "scenario=" << ScenarioName(scenario)
            << " mode=" << DiscoveryModeName(mode) << ": staged line '"
            << line << "' absent from golden:\n"
            << golden;
      }
      EXPECT_EQ(staged_bytes.substr(0, staged_bytes.find('\n')),
                golden.substr(0, golden.find('\n')))
          << "scenario=" << ScenarioName(scenario)
          << " mode=" << DiscoveryModeName(mode);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-stage identity: each stage, driven directly, agrees with the
// engine's composition of them.

TEST(DiscoveryPipelineTest, StagesComposedDirectlyMatchEngine) {
  ScenarioLake lake = MakeScenarioLake(Scenario::kJoinable);

  // Drive the four layers by hand...
  RepositoryOptions repo_opt;
  repo_opt.signature_size = kDiscoverySignatureSize;
  TableRepository repository(repo_opt);
  LshCandidateIndex::Options lsh_opt;
  LshCandidateIndex index(lsh_opt);
  for (const Table& t : lake.tables) {
    auto entry = repository.AddTable(t);
    ASSERT_TRUE(entry.ok());
    ASSERT_TRUE(index.Add(**entry).ok());
  }
  RetrievedCandidates retrieved =
      index.Retrieve(lake.query, DiscoveryMode::kJoinable, repository);
  CandidateSet candidates = Enricher().Enrich(retrieved, repository);
  ExactReranker::Options exact_opt;
  ExactReranker reranker(&ReferenceMatcher(), exact_opt);
  MatchContext ctx;
  RerankContext rctx;
  rctx.base = &ctx;
  rctx.trace_id = "test";
  Result<std::vector<DiscoveryResult>> reranked =
      reranker.Rerank(lake.query, DiscoveryMode::kJoinable, candidates, rctx);
  ASSERT_TRUE(reranked.ok());
  std::vector<DiscoveryResult> manual = std::move(reranked).ValueOrDie();
  std::sort(manual.begin(), manual.end(),
            [](const DiscoveryResult& a, const DiscoveryResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.table_name < b.table_name;
            });
  if (manual.size() > 5) manual.resize(5);

  // ...and compare against the engine running the same stages.
  DiscoveryEngine engine;
  for (const Table& t : lake.tables) {
    ASSERT_TRUE(engine.AddTable(t).ok());
  }
  EXPECT_EQ(Serialize(manual), Serialize(engine.FindJoinable(lake.query, 5)));

  // Stage invariants: enrichment preserves repository registration
  // order and loses no retrieved repository table.
  size_t last = 0;
  bool first = true;
  for (const EnrichedCandidate& c : candidates.candidates) {
    ASSERT_NE(c.entry, nullptr);
    EXPECT_EQ(retrieved.tables.count(c.entry->table.name()), 1u);
    if (!first) {
      EXPECT_GT(c.repository_index, last);
    }
    last = c.repository_index;
    first = false;
  }
  EXPECT_EQ(candidates.candidates.size(), retrieved.tables.size());
}

// ---------------------------------------------------------------------------
// Stage spans + per-stage metrics.

TEST(DiscoveryPipelineTest, EmitsStageSpansAndMetrics) {
  ScenarioLake lake = MakeScenarioLake(Scenario::kJoinable);
  Tracer tracer;
  MetricsRegistry metrics;
  DiscoveryOptions opt;
  opt.tracer = &tracer;
  opt.metrics = &metrics;
  DiscoveryEngine engine(std::move(opt));
  for (const Table& t : lake.tables) {
    ASSERT_TRUE(engine.AddTable(t).ok());
  }
  auto results = engine.FindJoinable(lake.query, 5);
  ASSERT_FALSE(results.empty());

  // Exactly one query span with the three stage spans nested under it.
  uint64_t query_span = 0;
  for (const SpanRecord& s : tracer.Snapshot()) {
    if (s.kind == "query" && s.name == "query") query_span = s.span_id;
  }
  ASSERT_NE(query_span, 0u);
  std::set<std::string> stages;
  for (const SpanRecord& s : tracer.Snapshot()) {
    if (s.kind != "stage") continue;
    EXPECT_EQ(s.parent_id, query_span) << s.name;
    stages.insert(s.name);
  }
  EXPECT_EQ(stages,
            (std::set<std::string>{"discovery.retrieve", "discovery.enrich",
                                   "discovery.rerank"}));

  // Per-stage counters joined on {mode, stage}; rerank count doubles as
  // the pre-existing candidates_scored_total.
  uint64_t retrieve =
      metrics
          .CounterFor("valentine_discovery_stage_candidates_total",
                      {{"mode", "joinable"}, {"stage", "retrieve"}})
          ->value();
  uint64_t enrich =
      metrics
          .CounterFor("valentine_discovery_stage_candidates_total",
                      {{"mode", "joinable"}, {"stage", "enrich"}})
          ->value();
  uint64_t rerank =
      metrics
          .CounterFor("valentine_discovery_stage_candidates_total",
                      {{"mode", "joinable"}, {"stage", "rerank"}})
          ->value();
  EXPECT_GT(retrieve, 0u);
  EXPECT_EQ(retrieve, enrich);
  EXPECT_EQ(enrich, rerank);
  EXPECT_EQ(rerank,
            metrics
                .CounterFor("valentine_discovery_candidates_scored_total",
                            {{"mode", "joinable"}})
                ->value());
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_survivors_total",
                            {{"mode", "joinable"}})
                ->value(),
            results.size());
  // No degraded retrieval happened.
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_fallback_total",
                            {{"mode", "joinable"},
                             {"reason", "empty-query-columns"}})
                ->value(),
            0u);
}

// ---------------------------------------------------------------------------
// Fallback accounting: a value-blind query degrades to exhaustive
// nomination and is COUNTED, not silently dropped.

Table MakeAllNullQuery() {
  Table q("blind_query");
  Column c("c", DataType::kString);
  for (int i = 0; i < 5; ++i) c.Append(Value::Null());
  (void)q.AddColumn(std::move(c));
  return q;
}

TEST(DiscoveryPipelineTest, ValueBlindJoinableQueryFallsBackAndCounts) {
  ScenarioLake lake = MakeScenarioLake(Scenario::kJoinable);
  MetricsRegistry metrics;
  DiscoveryOptions opt;
  opt.metrics = &metrics;
  DiscoveryEngine engine(std::move(opt));
  for (const Table& t : lake.tables) {
    ASSERT_TRUE(engine.AddTable(t).ok());
  }
  // Every query column sketches empty: the LSH index cannot see the
  // query. Pre-pipeline this silently returned zero results; now the
  // whole repository is nominated and the event is counted.
  DiscoveryExplain explain;
  Result<std::vector<DiscoveryResult>> found =
      engine.FindJoinable(MakeAllNullQuery(), 10, MatchContext(), &explain);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(explain.fallback);
  EXPECT_EQ(explain.fallback_reason, "empty-query-columns");
  EXPECT_EQ(explain.retrieved, lake.tables.size());
  EXPECT_EQ(explain.reranked, lake.tables.size());
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_fallback_total",
                            {{"mode", "joinable"},
                             {"reason", "empty-query-columns"}})
                ->value(),
            1u);

  // A value-bearing query does not count as fallback.
  (void)engine.FindJoinable(lake.query, 5);
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_fallback_total",
                            {{"mode", "joinable"},
                             {"reason", "empty-query-columns"}})
                ->value(),
            1u);
}

TEST(DiscoveryPipelineTest, UnionableFallbackOnlyWhenNameChannelOff) {
  ScenarioLake lake = MakeScenarioLake(Scenario::kUnionable);

  // With name-token postings on (the default), a value-blind unionable
  // query still retrieves through the name channel: no fallback.
  {
    MetricsRegistry metrics;
    DiscoveryOptions opt;
    opt.metrics = &metrics;
    DiscoveryEngine engine(std::move(opt));
    for (const Table& t : lake.tables) {
      ASSERT_TRUE(engine.AddTable(t).ok());
    }
    DiscoveryExplain explain;
    ASSERT_TRUE(engine
                    .FindUnionable(MakeAllNullQuery(), 10, MatchContext(),
                                   &explain)
                    .ok());
    EXPECT_FALSE(explain.fallback);
    EXPECT_EQ(metrics
                  .CounterFor("valentine_discovery_fallback_total",
                              {{"mode", "unionable"},
                               {"reason", "empty-query-columns"}})
                  ->value(),
              0u);
  }

  // With the name channel off the index is fully blind: fallback.
  {
    MetricsRegistry metrics;
    DiscoveryOptions opt;
    opt.metrics = &metrics;
    opt.union_name_candidates = false;
    DiscoveryEngine engine(std::move(opt));
    for (const Table& t : lake.tables) {
      ASSERT_TRUE(engine.AddTable(t).ok());
    }
    DiscoveryExplain explain;
    ASSERT_TRUE(engine
                    .FindUnionable(MakeAllNullQuery(), 10, MatchContext(),
                                   &explain)
                    .ok());
    EXPECT_TRUE(explain.fallback);
    EXPECT_EQ(explain.retrieved, lake.tables.size());
    EXPECT_EQ(metrics
                  .CounterFor("valentine_discovery_fallback_total",
                              {{"mode", "unionable"},
                               {"reason", "empty-query-columns"}})
                  ->value(),
              1u);
  }
}

// ---------------------------------------------------------------------------
// Explain channel.

TEST(DiscoveryPipelineTest, ExplainReportsServingIndexAndCounts) {
  ScenarioLake lake = MakeScenarioLake(Scenario::kJoinable);
  DiscoveryEngine engine;
  for (const Table& t : lake.tables) {
    ASSERT_TRUE(engine.AddTable(t).ok());
  }

  DiscoveryExplain joinable;
  Result<std::vector<DiscoveryResult>> j =
      engine.FindJoinable(lake.query, 2, MatchContext(), &joinable);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(joinable.index, "lsh");
  EXPECT_EQ(joinable.repository_tables, lake.tables.size());
  EXPECT_EQ(joinable.enriched, joinable.reranked);
  EXPECT_LE(joinable.survivors, 2u);
  EXPECT_EQ(joinable.survivors, j.ValueOrDie().size());

  DiscoveryExplain unionable;
  ASSERT_TRUE(engine
                  .Find(ExhaustiveCandidateIndex(), DiscoveryMode::kUnionable,
                        lake.query, 2, MatchContext(), &unionable)
                  .ok());
  EXPECT_EQ(unionable.index, "exhaustive");
  EXPECT_EQ(unionable.retrieved, lake.tables.size());

  // The explain out-param never changes result bytes.
  EXPECT_EQ(Serialize(j.ValueOrDie()),
            Serialize(engine.FindJoinable(lake.query, 2)));
}

}  // namespace
}  // namespace valentine
