// Thread-safety and determinism of DiscoveryEngine queries (discovery.h):
// concurrent FindJoinable/FindUnionable on a const engine must be safe
// (each repository entry's prepared-artifact slot, filled by the first
// query that scores the entry, is the only mutable state) and
// byte-identical to a sequential run — and the prepared fast path must
// serialize identically to the monolithic per-pair path. Runs under
// TSan via the tsan ctest label.

#include "discovery/discovery.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/chembl.h"
#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "fabrication/fabricator.h"
#include "matchers/jaccard_levenshtein.h"

namespace valentine {
namespace {

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
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

void FillEngine(DiscoveryEngine* engine, Table* query) {
  Table prospect = MakeTpcdiProspect(120, 2026);
  FabricationOptions fab;
  fab.scenario = Scenario::kJoinable;
  fab.column_overlap = 0.4;
  fab.seed = 4;
  DatasetPair split = FabricateDatasetPair(prospect, fab).ValueOrDie();
  *query = split.source;
  query->set_name("query");
  Table partner = split.target;
  partner.set_name("planted_partner");
  ASSERT_TRUE(engine->AddTable(std::move(partner)).ok());
  ASSERT_TRUE(engine->AddTable(MakeOpenDataTable(120, 4711)).ok());
  ASSERT_TRUE(engine->AddTable(MakeChemblAssays(120, 99)).ok());
}

/// Wraps a matcher but hides its pipeline overrides: only
/// MatchWithContext is forwarded, so the engine degrades to the legacy
/// monolithic per-pair path (the default Score falls through to it).
class MonolithicOnly : public ColumnMatcher {
 public:
  std::string Name() const override { return inner_.Name(); }
  MatcherCategory Category() const override { return inner_.Category(); }
  std::vector<MatchType> Capabilities() const override {
    return inner_.Capabilities();
  }
  [[nodiscard]] Result<MatchResult> MatchWithContext(
      const Table& source, const Table& target,
      const MatchContext& context) const override {
    return inner_.Match(source, target, context);
  }

 private:
  JaccardLevenshteinMatcher inner_;
};

TEST(DiscoveryDeterminismTest, PreparedPathMatchesMonolithicBytes) {
  DiscoveryOptions prepared_opt;
  prepared_opt.matcher = std::make_unique<JaccardLevenshteinMatcher>();
  DiscoveryEngine prepared_engine(std::move(prepared_opt));
  Table query;
  FillEngine(&prepared_engine, &query);

  DiscoveryOptions monolithic_opt;
  monolithic_opt.matcher = std::make_unique<MonolithicOnly>();
  DiscoveryEngine monolithic_engine(std::move(monolithic_opt));
  Table same_query;
  FillEngine(&monolithic_engine, &same_query);

  EXPECT_EQ(Serialize(prepared_engine.FindJoinable(query, 5)),
            Serialize(monolithic_engine.FindJoinable(same_query, 5)));
  EXPECT_EQ(Serialize(prepared_engine.FindUnionable(query, 5)),
            Serialize(monolithic_engine.FindUnionable(same_query, 5)));
}

TEST(DiscoveryDeterminismTest, WarmCacheMatchesColdBytes) {
  DiscoveryEngine engine;
  Table query;
  FillEngine(&engine, &query);
  const std::string cold_join = Serialize(engine.FindJoinable(query, 5));
  const std::string cold_union = Serialize(engine.FindUnionable(query, 5));
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(Serialize(engine.FindJoinable(query, 5)), cold_join);
    EXPECT_EQ(Serialize(engine.FindUnionable(query, 5)), cold_union);
  }
}

TEST(DiscoveryDeterminismTest, AddTableInvalidatesCachedArtifacts) {
  // Artifacts borrow their entry's table and stay in that entry's slot
  // across AddTable; a Find after it must answer like a fresh engine.
  DiscoveryEngine engine;
  Table query;
  FillEngine(&engine, &query);
  (void)engine.FindUnionable(query, 5);  // warm the cache

  Table extra = MakeOpenDataTable(80, 77);
  extra.set_name("late_arrival");
  ASSERT_TRUE(engine.AddTable(extra).ok());
  DiscoveryEngine fresh;
  Table same_query;
  FillEngine(&fresh, &same_query);
  ASSERT_TRUE(fresh.AddTable(extra).ok());
  EXPECT_EQ(Serialize(engine.FindUnionable(query, 6)),
            Serialize(fresh.FindUnionable(same_query, 6)));
  EXPECT_EQ(Serialize(engine.FindJoinable(query, 6)),
            Serialize(fresh.FindJoinable(same_query, 6)));
}

// Concurrent queries on a const engine: every thread's bytes must equal
// the sequential baseline — both cold (threads race to build artifacts)
// and warm (threads serve from the shared cache).
TEST(DiscoveryConcurrencyTest, ConcurrentFindsMatchSequentialBytes) {
  DiscoveryEngine engine;
  Table query;
  FillEngine(&engine, &query);

  DiscoveryEngine baseline_engine;
  Table baseline_query;
  FillEngine(&baseline_engine, &baseline_query);
  const std::string expected_join =
      Serialize(baseline_engine.FindJoinable(baseline_query, 5));
  const std::string expected_union =
      Serialize(baseline_engine.FindUnionable(baseline_query, 5));

  constexpr size_t kThreads = 8;
  for (int repeat = 0; repeat < 2; ++repeat) {  // cold then warm cache
    std::vector<std::string> joins(kThreads), unions(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const DiscoveryEngine& const_engine = engine;
        joins[t] = Serialize(const_engine.FindJoinable(query, 5));
        unions[t] = Serialize(const_engine.FindUnionable(query, 5));
      });
    }
    for (auto& t : threads) t.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(joins[t], expected_join)
          << "FindJoinable diverged in thread " << t << " repeat " << repeat;
      EXPECT_EQ(unions[t], expected_union)
          << "FindUnionable diverged in thread " << t << " repeat " << repeat;
    }
  }
}

}  // namespace
}  // namespace valentine
