// Differential tests for the log-structured LSH candidate index
// (discovery/candidate_index.h) as the serving registry and a direct
// DiscoveryEngine drive it. Seeded sequences of register, unregister
// and changed-content re-register go through DiscoveryService, which
// applies each delta to a copy of the previous snapshot's segmented
// index, and through AddTable/RemoveTable on one engine. After every
// step the index must answer exactly like a fresh monolithic index: a
// two-argument DiscoveryEngine::FromRepository over the same tables,
// which bands everything into one segment. Same nominations, same
// explain counts, byte-identical rendered results. The banding cost is
// pinned by exact counts rather than timers.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "discovery/candidate_index.h"
#include "discovery/discovery.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace valentine {
namespace serve {
namespace {

constexpr size_t kTopK = 5;
constexpr char kBandedTotal[] = "valentine_discovery_index_banded_total";

size_t FloorLog2(size_t n) {
  size_t log = 0;
  while (n > 1) {
    n >>= 1;
    ++log;
  }
  return log;
}

std::string TableName(uint64_t i) {
  std::string name = "t";
  name += std::to_string(i);
  return name;
}

/// A two- or three-column table whose value windows and column names
/// slide with `variant`: neighbouring variants overlap, so both the
/// value channel and the name-token channel nominate a varied subset,
/// and a re-register under a new variant moves the table's content.
Table LakeTable(const std::string& name, uint64_t variant) {
  static const char* const kWords[] = {"city",   "zip",    "price",
                                       "vendor", "region", "sku"};
  Table table(name);
  const size_t columns = 2 + variant % 2;
  for (size_t c = 0; c < columns; ++c) {
    Column column(kWords[(variant + 2 * c) % 6], DataType::kString);
    const uint64_t start = (variant * 13 + c * 5) % 60;
    for (uint64_t row = 0; row < 12; ++row) {
      column.Append(Value::String(std::to_string(start + row) + "v"));
    }
    EXPECT_TRUE(table.AddColumn(std::move(column)).ok());
  }
  return table;
}

std::vector<Table> Queries() {
  Table blind("q_blind");  // every value null: joinable falls back
  Column nulls("city", DataType::kString);
  for (int i = 0; i < 4; ++i) nulls.Append(Value::Null());
  EXPECT_TRUE(blind.AddColumn(std::move(nulls)).ok());
  return {LakeTable("q_a", 3), LakeTable("q_b", 10), LakeTable("q_c", 29),
          std::move(blind)};
}

/// Structural invariants of an engine's index after any mutation: no
/// segment half removed, at most floor(log2 N)+1 segments, and the
/// exported counter (when there is one) equal to the index's own count.
void ExpectSealedInvariants(const DiscoveryEngine& served,
                            const MetricsRegistry* metrics,
                            const std::string& step) {
  const LshCandidateIndex& index = served.candidate_index();
  const std::vector<LshCandidateIndex::SegmentStats> segments =
      index.Segments();
  size_t live = 0;
  for (const LshCandidateIndex::SegmentStats& segment : segments) {
    EXPECT_LT(2 * segment.removed, segment.banded) << step;
    live += segment.banded - segment.removed;
  }
  EXPECT_EQ(live, served.num_tables()) << step;
  if (served.num_tables() > 0) {
    EXPECT_LE(segments.size(), FloorLog2(served.num_tables()) + 1) << step;
  }
  if (metrics != nullptr) {
    EXPECT_EQ(metrics->CounterValue(kBandedTotal), index.banded_entries())
        << step;
  }
}

/// The snapshot against a monolithic index over the same repository:
/// identical nominations and fallback per mode, and byte-identical
/// rendered results with the explain block (every stage count) on.
void ExpectMatchesMonolith(const DiscoveryEngine& served,
                           const std::vector<Table>& queries,
                           const std::string& step) {
  std::unique_ptr<DiscoveryEngine> monolith =
      DiscoveryEngine::FromRepository(DiscoveryOptions(), served.repository())
          .ValueOrDie();
  ASSERT_LE(monolith->candidate_index().Segments().size(), 1u) << step;
  for (const Table& query : queries) {
    for (DiscoveryMode mode :
         {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
      const std::string where =
          step + " query=" + query.name() + " mode=" + DiscoveryModeName(mode);
      RetrievedCandidates got =
          served.candidate_index().Retrieve(query, mode, served.repository());
      RetrievedCandidates want = monolith->candidate_index().Retrieve(
          query, mode, monolith->repository());
      EXPECT_EQ(got.tables, want.tables) << where;
      EXPECT_EQ(got.fallback, want.fallback) << where;
      EXPECT_EQ(got.fallback_reason, want.fallback_reason) << where;

      DiscoveryExplain got_explain, want_explain;
      auto find = [&](const DiscoveryEngine& engine,
                      DiscoveryExplain* explain) {
        return (mode == DiscoveryMode::kJoinable
                    ? engine.FindJoinable(query, kTopK, MatchContext(),
                                          explain)
                    : engine.FindUnionable(query, kTopK, MatchContext(),
                                           explain))
            .ValueOrDie();
      };
      EXPECT_EQ(RenderDiscoveryResults(query.name(), DiscoveryModeName(mode),
                                       kTopK, find(served, &got_explain),
                                       &got_explain),
                RenderDiscoveryResults(query.name(), DiscoveryModeName(mode),
                                       kTopK, find(*monolith, &want_explain),
                                       &want_explain))
          << where;
    }
  }
}

void ExpectStep(const DiscoveryService& service,
                const MetricsRegistry* metrics,
                const std::vector<Table>& queries, const std::string& step) {
  std::shared_ptr<const DiscoveryEngine> served = service.Snapshot();
  ExpectSealedInvariants(*served, metrics, step);
  ExpectMatchesMonolith(*served, queries, step);
}

/// One seeded sequence of register, unregister and changed-content
/// re-register operations. `check(step)` runs after every operation.
/// Returns the number of tables left registered.
size_t RunSeededChurn(uint64_t seed,
                      const std::function<Status(Table)>& add,
                      const std::function<Status(const std::string&)>& remove,
                      const std::function<void(const std::string&)>& check) {
  Rng rng(seed);
  std::map<std::string, uint64_t> live;  // name -> content variant
  uint64_t next_name = 0;
  uint64_t next_variant = 0;
  for (int step = 0; step < 45; ++step) {
    const std::string trace =
        "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
    const uint64_t op = live.size() < 4 ? 0 : rng.NextBounded(5);
    if (op <= 1) {
      const std::string name = TableName(next_name++);
      const uint64_t variant = next_variant++;
      EXPECT_TRUE(add(LakeTable(name, variant)).ok()) << trace;
      live[name] = variant;
      check(trace + " register " + name);
      continue;
    }
    auto victim = live.begin();
    std::advance(victim, static_cast<ptrdiff_t>(rng.Index(live.size())));
    const std::string name = victim->first;
    EXPECT_TRUE(remove(name).ok()) << trace;
    live.erase(victim);
    check(trace + " unregister " + name);
    if (op == 2) continue;
    // Re-register under the same name with changed content.
    const uint64_t variant = next_variant++;
    EXPECT_TRUE(add(LakeTable(name, variant)).ok()) << trace;
    live[name] = variant;
    check(trace + " re-register " + name);
  }
  return live.size();
}

TEST(IncrementalIndex, SeededChurnMatchesMonolithAfterEveryStep) {
  const std::vector<Table> queries = Queries();
  for (uint64_t seed : {1u, 2u, 3u}) {
    MetricsRegistry metrics;
    ServiceOptions options;
    options.metrics = &metrics;
    DiscoveryService service(options);
    const size_t live = RunSeededChurn(
        seed,
        [&](Table table) { return service.RegisterTable(std::move(table)); },
        [&](const std::string& name) { return service.UnregisterTable(name); },
        [&](const std::string& step) {
          ExpectStep(service, &metrics, queries, step);
        });
    EXPECT_EQ(service.num_tables(), live);
  }
}

// A direct engine takes the same log-structured path: AddTable bands a
// one-table segment and merges, RemoveTable is lazy and compacts.
TEST(IncrementalIndex, DirectEngineChurnMatchesMonolithAfterEveryStep) {
  const std::vector<Table> queries = Queries();
  for (uint64_t seed : {1u, 2u, 3u}) {
    DiscoveryEngine direct;
    const size_t live = RunSeededChurn(
        seed, [&](Table table) { return direct.AddTable(std::move(table)); },
        [&](const std::string& name) { return direct.RemoveTable(name); },
        [&](const std::string& step) {
          ExpectSealedInvariants(direct, nullptr, step);
          ExpectMatchesMonolith(direct, queries, step);
        });
    EXPECT_EQ(direct.num_tables(), live);
  }
}

TEST(IncrementalIndex, MergeCascadeThenHalfRemovedCompaction) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  DiscoveryService service(options);
  const std::vector<Table> queries = Queries();
  auto sizes = [&service] {
    std::vector<size_t> out;
    for (const auto& segment :
         service.Snapshot()->candidate_index().Segments()) {
      out.push_back(segment.banded);
    }
    return out;
  };

  for (uint64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        service.RegisterTable(LakeTable(TableName(i), i)).ok());
  }
  // A binary counter: one segment per set bit of 7.
  EXPECT_EQ(sizes(), (std::vector<size_t>{4, 2, 1}));
  ExpectStep(service, &metrics, queries, "7 tables");

  // The 8th table cascades every segment into one.
  ASSERT_TRUE(service.RegisterTable(LakeTable("t7", 7)).ok());
  EXPECT_EQ(sizes(), (std::vector<size_t>{8}));
  // One-table segments band 8, merges 2 + 4 + 2 + 8.
  EXPECT_EQ(metrics.CounterValue(kBandedTotal), 24u);
  ExpectStep(service, &metrics, queries, "cascade");

  // Removals from the sealed segment are lazy until half are removed.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.UnregisterTable(TableName(i)).ok());
    const auto segments = service.Snapshot()->candidate_index().Segments();
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].banded, 8u);
    EXPECT_EQ(segments[0].removed, static_cast<size_t>(i + 1));
    EXPECT_EQ(metrics.CounterValue(kBandedTotal), 24u);
    ExpectStep(service, &metrics, queries, "lazy " + std::to_string(i));
  }
  // The 4th removal makes the segment half removed: it is rebuilt from
  // its 4 live tables.
  ASSERT_TRUE(service.UnregisterTable("t3").ok());
  const auto compacted = service.Snapshot()->candidate_index().Segments();
  ASSERT_EQ(compacted.size(), 1u);
  EXPECT_EQ(compacted[0].banded, 4u);
  EXPECT_EQ(compacted[0].removed, 0u);
  EXPECT_EQ(metrics.CounterValue(kBandedTotal), 28u);
  ExpectStep(service, &metrics, queries, "compacted");
}

TEST(IncrementalIndex, ReRegisteredNameNeverServesFreedContent) {
  // Unregistering frees the old entry once no snapshot holds it, so its
  // changed-content replacement may be allocated at the same address.
  // The sealed segment keeps the old content's postings (the removal is
  // lazy). The index's removal mark and the registration number each
  // keep them silent; an address comparison would not.
  // discovery_candidate_index_test pins the registration check alone.
  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  DiscoveryService service(options);
  for (uint64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        service.RegisterTable(LakeTable(TableName(i), i)).ok());
  }
  ASSERT_TRUE(service.RegisterTable(LakeTable("target", 100)).ok());
  const Table old_content_query = LakeTable("q_old", 100);
  const std::vector<Table> queries = {old_content_query, LakeTable("q_new", 200)};
  {
    std::shared_ptr<const DiscoveryEngine> before = service.Snapshot();
    EXPECT_EQ(before->candidate_index()
                  .Retrieve(old_content_query, DiscoveryMode::kJoinable,
                            before->repository())
                  .tables.count("target"),
              1u);
  }

  ASSERT_TRUE(service.UnregisterTable("target").ok());
  ASSERT_TRUE(service.RegisterTable(LakeTable("target", 200)).ok());
  std::shared_ptr<const DiscoveryEngine> after = service.Snapshot();
  // The old posting is still banded in the 8-table segment...
  const auto segments = after->candidate_index().Segments();
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().banded, 8u);
  EXPECT_EQ(segments.front().removed, 1u);
  // ...but never nominates the replacement for the old content.
  EXPECT_EQ(after->candidate_index()
                .Retrieve(old_content_query, DiscoveryMode::kJoinable,
                          after->repository())
                .tables.count("target"),
            0u);
  ExpectStep(service, &metrics, queries, "re-registered");
}

TEST(IncrementalIndex, AdoptingFromRepositoryRejectsForeignIndexOptions) {
  DiscoveryEngine direct;
  ASSERT_TRUE(direct.AddTable(LakeTable("t0", 0)).ok());
  DiscoveryOptions same;
  EXPECT_TRUE(DiscoveryEngine::FromRepository(std::move(same),
                                              direct.repository(),
                                              direct.candidate_index())
                  .ok());
  DiscoveryOptions other;
  other.min_containment = 0.5;
  Result<std::unique_ptr<DiscoveryEngine>> adopted =
      DiscoveryEngine::FromRepository(std::move(other), direct.repository(),
                                      direct.candidate_index());
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalIndex, ThreeHundredRegistrationsBandWithinLogBound) {
  constexpr size_t kTables = 300;
  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  DiscoveryService service(options);
  for (size_t i = 0; i < kTables; ++i) {
    ASSERT_TRUE(
        service.RegisterTable(LakeTable(TableName(i), i)).ok());
  }
  // Re-banding the lake per registration would band
  // 1 + 2 + ... + 300 = 45,150 entries.
  const uint64_t banded = metrics.CounterValue(kBandedTotal);
  EXPECT_LE(banded, kTables * (FloorLog2(kTables) + 2));
  EXPECT_EQ(banded, 1570u);
  // One segment per set bit of 300 = 256 + 32 + 8 + 4.
  EXPECT_EQ(service.Snapshot()->candidate_index().Segments().size(), 4u);
  ExpectSealedInvariants(*service.Snapshot(), &metrics, "300 registered");

  // Direct registration follows the same cost model: the same bandings
  // and the same segments.
  DiscoveryEngine direct;
  for (size_t i = 0; i < kTables; ++i) {
    ASSERT_TRUE(direct.AddTable(LakeTable(TableName(i), i)).ok());
  }
  EXPECT_EQ(direct.candidate_index().banded_entries(), 1570u);
  EXPECT_EQ(direct.candidate_index().Segments().size(), 4u);
  ExpectSealedInvariants(direct, nullptr, "300 added");
  // Rebuilding from the repository bands each table once, into one
  // segment.
  std::unique_ptr<DiscoveryEngine> rebuilt =
      DiscoveryEngine::FromRepository(DiscoveryOptions(), direct.repository())
          .ValueOrDie();
  EXPECT_EQ(rebuilt->candidate_index().banded_entries(), kTables);
  EXPECT_EQ(rebuilt->candidate_index().Segments().size(), 1u);
}

TEST(IncrementalIndex, ThousandChurnPairsNeverLeaveASegmentHalfRemoved) {
  constexpr size_t kTables = 300;
  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  DiscoveryService service(options);
  for (size_t i = 0; i < kTables; ++i) {
    ASSERT_TRUE(
        service.RegisterTable(LakeTable(TableName(i), i)).ok());
  }
  const std::vector<Table> queries = Queries();
  Rng rng(13);
  for (int pair = 0; pair < 1000; ++pair) {
    const uint64_t victim = rng.NextBounded(kTables);
    const std::string name = TableName(victim);
    const std::string step = "pair " + std::to_string(pair) + " " + name;
    ASSERT_TRUE(service.UnregisterTable(name).ok()) << step;
    ExpectSealedInvariants(*service.Snapshot(), &metrics, step + " out");
    // Every other pair brings the table back with changed content.
    const uint64_t variant = pair % 2 == 0 ? victim : victim + 1000;
    ASSERT_TRUE(service.RegisterTable(LakeTable(name, variant)).ok()) << step;
    ExpectSealedInvariants(*service.Snapshot(), &metrics, step + " in");
    if (pair % 250 == 249) {
      std::shared_ptr<const DiscoveryEngine> served = service.Snapshot();
      std::unique_ptr<DiscoveryEngine> monolith =
          DiscoveryEngine::FromRepository(DiscoveryOptions(),
                                          served->repository())
              .ValueOrDie();
      for (const Table& query : queries) {
        for (DiscoveryMode mode :
             {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
          EXPECT_EQ(served->candidate_index()
                        .Retrieve(query, mode, served->repository())
                        .tables,
                    monolith->candidate_index()
                        .Retrieve(query, mode, monolith->repository())
                        .tables)
              << step << " " << query.name();
        }
      }
    }
  }
  EXPECT_EQ(service.num_tables(), kTables);
}

}  // namespace
}  // namespace serve
}  // namespace valentine
