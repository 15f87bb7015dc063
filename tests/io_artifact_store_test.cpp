// Tests for the persistent discovery artifact store: canonical
// byte-stable serialization, versioned on-disk round-trips, corrupt-file
// rejection, cold-restart ranking identity, and concurrent load-vs-query
// safety (the tsan-labelled half).

#include "io/artifact_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "datasets/tpcdi.h"
#include "discovery/discovery.h"
#include "matchers/artifact_cache.h"
#include "serve/service.h"

namespace valentine {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/valentine_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Table SmallTable(const std::string& name, int salt) {
  Table t(name);
  Column id("record_id", DataType::kString);
  Column city("city_name", DataType::kString);
  for (int i = 0; i < 40; ++i) {
    id.Append(Value::String("id_" + std::to_string(salt * 1000 + i)));
    city.Append(Value::String("city_" + std::to_string(salt * 7 + i % 9)));
  }
  EXPECT_TRUE(t.AddColumn(std::move(id)).ok());
  EXPECT_TRUE(t.AddColumn(std::move(city)).ok());
  return t;
}

/// A well-formed VDA1 file whose header says width 128 while its second
/// column holds a 64-slot signature.
std::string MixedWidthBytes(const Table& t) {
  TableDiscoveryArtifact artifact = BuildDiscoveryArtifact(t, 128);
  artifact.columns[1].sketch =
      LazoSketch::Build(t.column(1).DistinctStringSet(), 64);
  return SerializeDiscoveryArtifact(artifact);
}

/// The file a store rooted at `dir` keeps t's artifact in.
std::string ArtifactPath(const std::string& dir, const Table& t) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(TableContentFingerprint(t)));
  return dir + "/" + hex + ".vda";
}

/// Writes `bytes` where a store keeps t's artifact.
void PlantFile(const std::string& dir, const Table& t,
               const std::string& bytes) {
  ArtifactStore store(dir);
  std::ofstream out(ArtifactPath(dir, t), std::ios::binary);
  out << bytes;
}

void PlantMixedWidthFile(const std::string& dir, const Table& t) {
  PlantFile(dir, t, MixedWidthBytes(t));
}

/// t's artifact in the layout versions 1 and 2 wrote for a table
/// without profiles: the current bytes labelled `version`, followed by
/// a cleared profile flag.
std::string OldVersionBytes(const Table& t, uint32_t version) {
  std::string bytes =
      SerializeDiscoveryArtifact(BuildDiscoveryArtifact(t, 128));
  bytes[4] = static_cast<char>(version);
  return bytes + '\x00';
}

TEST(ArtifactCodecTest, RoundTripIsByteIdentical) {
  Table t = MakeTpcdiProspect(120, 77);
  TableDiscoveryArtifact artifact =
      BuildDiscoveryArtifact(t, /*signature_size=*/128);
  std::string bytes = SerializeDiscoveryArtifact(artifact);

  Result<TableDiscoveryArtifact> parsed = ParseDiscoveryArtifact(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  // The canonical-serialization contract: serialize(parse(bytes)) is
  // byte-identical to the original.
  EXPECT_EQ(SerializeDiscoveryArtifact(*parsed), bytes);
  EXPECT_EQ(parsed->fingerprint, TableContentFingerprint(t));
  EXPECT_EQ(parsed->table_name, t.name());
  ASSERT_EQ(parsed->columns.size(), t.num_columns());
  EXPECT_EQ(parsed->columns[0].name, t.column(0).name());
}

TEST(ArtifactCodecTest, SerializationIsDeterministicAcrossBuilds) {
  Table t = SmallTable("det", 3);
  std::string a = SerializeDiscoveryArtifact(BuildDiscoveryArtifact(t, 128));
  std::string b = SerializeDiscoveryArtifact(BuildDiscoveryArtifact(t, 128));
  EXPECT_EQ(a, b);
}

// Each column's sketch is the Lazo sketch of its distinct value set.
TEST(ArtifactCodecTest, SketchesEqualValueSetSketches) {
  Table t = MakeTpcdiProspect(80, 31);
  TableDiscoveryArtifact artifact = BuildDiscoveryArtifact(t, 128);
  ASSERT_EQ(artifact.columns.size(), t.num_columns());
  for (size_t i = 0; i < t.num_columns(); ++i) {
    const LazoSketch want =
        LazoSketch::Build(t.column(i).DistinctStringSet(), 128);
    const LazoSketch& got = artifact.columns[i].sketch;
    EXPECT_EQ(got.signature.mins(), want.signature.mins()) << "column " << i;
    EXPECT_EQ(got.signature.empty_set(), want.signature.empty_set());
    EXPECT_EQ(got.cardinality, want.cardinality);
  }
}

TEST(ArtifactCodecTest, RejectsCorruptBytes) {
  Table t = SmallTable("corrupt", 1);
  std::string bytes =
      SerializeDiscoveryArtifact(BuildDiscoveryArtifact(t, 128));

  // Truncation at any of several depths must yield ParseError.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{7}, size_t{20},
                     bytes.size() / 2, bytes.size() - 1}) {
    Result<TableDiscoveryArtifact> r =
        ParseDiscoveryArtifact(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << "cut=" << cut;
  }
  // Foreign magic.
  std::string foreign = bytes;
  foreign[0] = 'X';
  EXPECT_EQ(ParseDiscoveryArtifact(foreign).status().code(),
            StatusCode::kParseError);
  // Future version.
  std::string future = bytes;
  future[4] = '\x7f';
  EXPECT_EQ(ParseDiscoveryArtifact(future).status().code(),
            StatusCode::kParseError);
  // Trailing garbage.
  EXPECT_EQ(ParseDiscoveryArtifact(bytes + "x").status().code(),
            StatusCode::kParseError);
  // A column whose signature width differs from the header's.
  EXPECT_EQ(ParseDiscoveryArtifact(MixedWidthBytes(t)).status().code(),
            StatusCode::kParseError);
  // Version 1 and 2 files, which also carried column profiles.
  for (uint32_t version : {1u, 2u}) {
    Result<TableDiscoveryArtifact> old =
        ParseDiscoveryArtifact(OldVersionBytes(t, version));
    EXPECT_EQ(old.status().code(), StatusCode::kParseError);
    const std::string want =
        std::string("unsupported version ").append(std::to_string(version));
    EXPECT_NE(old.status().message().find(want), std::string::npos)
        << old.status().message();
  }
}

TEST(ArtifactStoreTest, PutGetRemoveRoundTrip) {
  ArtifactStore store(FreshDir("roundtrip"));
  Table t = SmallTable("rt", 2);
  auto artifact = std::make_shared<const TableDiscoveryArtifact>(
      BuildDiscoveryArtifact(t, 128));
  const uint64_t fp = artifact->fingerprint;

  EXPECT_FALSE(store.Contains(fp));
  EXPECT_EQ(store.Get(fp).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(store.Put(artifact).ok());
  EXPECT_TRUE(store.Contains(fp));
  ASSERT_EQ(store.List(), std::vector<uint64_t>{fp});

  // Memory-cache hit returns the very same object.
  auto got = store.Get(fp);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), artifact.get());

  // Cold restart: drop the cache, re-read from disk, compare bytes.
  store.DropMemoryCache();
  EXPECT_EQ(store.memory_cache_size(), 0u);
  auto reloaded = store.Get(fp);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_NE(reloaded->get(), artifact.get());
  EXPECT_EQ(SerializeDiscoveryArtifact(**reloaded),
            SerializeDiscoveryArtifact(*artifact));

  ASSERT_TRUE(store.Remove(fp).ok());
  EXPECT_FALSE(store.Contains(fp));
  EXPECT_TRUE(store.List().empty());
  // Removing an absent artifact is OK (idempotent).
  EXPECT_TRUE(store.Remove(fp).ok());
}

TEST(ArtifactStoreTest, CorruptFileSurfacesAsParseError) {
  std::string dir = FreshDir("corruptfile");
  ArtifactStore store(dir);
  Table t = SmallTable("cf", 9);
  auto artifact = std::make_shared<const TableDiscoveryArtifact>(
      BuildDiscoveryArtifact(t, 128));
  ASSERT_TRUE(store.Put(artifact).ok());
  store.DropMemoryCache();

  // Truncate the on-disk file behind the store's back.
  std::vector<uint64_t> fps = store.List();
  ASSERT_EQ(fps.size(), 1u);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fps[0]));
  std::string path = dir + "/" + hex + ".vda";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "VDA1 and then nonsense";
  }
  EXPECT_EQ(store.Get(fps[0]).status().code(), StatusCode::kParseError);
}

TEST(ArtifactStoreTest, ColdRestartReproducesRankingsWithoutRebuilds) {
  std::string dir = FreshDir("coldstart");
  Table query = SmallTable("query_table", 1);

  // First process: build everything, persist write-through.
  std::string first_rankings;
  {
    ArtifactStore store(dir);
    MetricsRegistry metrics;
    DiscoveryOptions opt;
    opt.store = &store;
    opt.metrics = &metrics;
    DiscoveryEngine engine(std::move(opt));
    for (int i = 0; i < 6; ++i) {
      const std::string name = std::string("t").append(std::to_string(i));
      ASSERT_TRUE(engine.AddTable(SmallTable(name, i % 3)).ok());
    }
    EXPECT_EQ(metrics
                  .CounterFor("valentine_discovery_store_total",
                              {{"event", "build"}})
                  ->value(),
              6u);
    for (const DiscoveryResult& r : engine.FindJoinable(query, 10)) {
      first_rankings += r.table_name + "=" + std::to_string(r.score) + ";";
    }
  }

  // Second process (fresh store object, same directory): every AddTable
  // must hit the store, and the rankings must be identical.
  {
    ArtifactStore store(dir);
    MetricsRegistry metrics;
    DiscoveryOptions opt;
    opt.store = &store;
    opt.metrics = &metrics;
    DiscoveryEngine engine(std::move(opt));
    for (int i = 0; i < 6; ++i) {
      const std::string name = std::string("t").append(std::to_string(i));
      ASSERT_TRUE(engine.AddTable(SmallTable(name, i % 3)).ok());
    }
    EXPECT_EQ(metrics
                  .CounterFor("valentine_discovery_store_total",
                              {{"event", "hit"}})
                  ->value(),
              6u);
    EXPECT_EQ(metrics
                  .CounterFor("valentine_discovery_store_total",
                              {{"event", "build"}})
                  ->value(),
              0u);
    std::string second_rankings;
    for (const DiscoveryResult& r : engine.FindJoinable(query, 10)) {
      second_rankings += r.table_name + "=" + std::to_string(r.score) + ";";
    }
    EXPECT_EQ(second_rankings, first_rankings);
  }
}

TEST(ArtifactStoreTest, StaleArtifactIsRebuiltNotServed) {
  std::string dir = FreshDir("stale");
  Table t = SmallTable("stale_t", 4);

  // Persist an artifact at a DIFFERENT signature width than the engine
  // uses; registration must rebuild instead of mis-banding it.
  {
    ArtifactStore store(dir);
    auto artifact = std::make_shared<const TableDiscoveryArtifact>(
        BuildDiscoveryArtifact(t, /*signature_size=*/32));
    ASSERT_TRUE(store.Put(artifact).ok());
  }
  {
    ArtifactStore store(dir);
    MetricsRegistry metrics;
    DiscoveryOptions opt;  // default LSH: 16 x 8 = 128
    opt.store = &store;
    opt.metrics = &metrics;
    DiscoveryEngine engine(std::move(opt));
    ASSERT_TRUE(engine.AddTable(t).ok());
    EXPECT_EQ(metrics
                  .CounterFor("valentine_discovery_store_total",
                              {{"event", "build"}})
                  ->value(),
              1u);
    // The refreshed artifact replaced the stale one on disk.
    auto reloaded = store.Get(TableContentFingerprint(t));
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ((*reloaded)->signature_size, 128u);
  }
}

// A stored file mixing signature widths is not served: registration
// rebuilds and overwrites it, and the table is indexed like any other.
TEST(ArtifactStoreTest, MixedWidthFileIsRebuiltByEngine) {
  std::string dir = FreshDir("mixed_engine");
  Table t = SmallTable("mixed_t", 5);
  PlantMixedWidthFile(dir, t);
  ArtifactStore store(dir);
  MetricsRegistry metrics;
  DiscoveryOptions opt;
  opt.store = &store;
  opt.metrics = &metrics;
  DiscoveryEngine engine(std::move(opt));
  ASSERT_TRUE(engine.AddTable(t).ok());
  EXPECT_EQ(engine.num_tables(), 1u);
  EXPECT_EQ(metrics.CounterValue("valentine_discovery_store_total",
                                 {{"event", "build"}}),
            1u);
  EXPECT_EQ(metrics.CounterValue("valentine_discovery_store_total",
                                 {{"event", "hit"}}),
            0u);
  RetrievedCandidates nominated = engine.candidate_index().Retrieve(
      t, DiscoveryMode::kJoinable, engine.repository());
  EXPECT_FALSE(nominated.fallback);
  EXPECT_EQ(nominated.tables.count(t.name()), 1u);
  auto rewritten = store.Get(TableContentFingerprint(t));
  ASSERT_TRUE(rewritten.ok());
  for (const ColumnDiscoveryArtifact& c : (*rewritten)->columns) {
    EXPECT_EQ(c.sketch.signature.size(), 128u);
  }
}

// Version 1 and 2 files are not served: registration rebuilds each and
// writes the current version in its place.
TEST(ArtifactStoreTest, VersionOneFileIsRebuiltByEngine) {
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "version " << version);
    std::string dir = FreshDir("old_version");
    Table t = SmallTable("old_t", 7);
    PlantFile(dir, t, OldVersionBytes(t, version));
    ArtifactStore store(dir);
    MetricsRegistry metrics;
    DiscoveryOptions opt;
    opt.store = &store;
    opt.metrics = &metrics;
    DiscoveryEngine engine(std::move(opt));
    ASSERT_TRUE(engine.AddTable(t).ok());
    EXPECT_EQ(metrics.CounterValue("valentine_discovery_store_total",
                                   {{"event", "build"}}),
              1u);
    EXPECT_EQ(metrics.CounterValue("valentine_discovery_store_total",
                                   {{"event", "hit"}}),
              0u);
    std::ifstream in(ArtifactPath(dir, t), std::ios::binary);
    const std::string rewritten((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
    ASSERT_GE(rewritten.size(), 8u);
    EXPECT_EQ(rewritten.substr(4, 4), std::string("\x03\x00\x00\x00", 4));
    EXPECT_TRUE(ParseDiscoveryArtifact(rewritten).ok());
  }
}

TEST(ArtifactStoreTest, MixedWidthFileIsRebuiltByService) {
  std::string dir = FreshDir("mixed_service");
  Table t = SmallTable("mixed_s", 6);
  PlantMixedWidthFile(dir, t);
  ArtifactStore store(dir);
  MetricsRegistry metrics;
  serve::ServiceOptions options;
  options.store = &store;
  options.metrics = &metrics;
  serve::DiscoveryService service(options);
  ASSERT_TRUE(service.RegisterTable(t).ok());
  EXPECT_EQ(service.num_tables(), 1u);
  EXPECT_EQ(metrics.CounterValue("valentine_discovery_store_total",
                                 {{"event", "build"}}),
            1u);
  std::shared_ptr<const DiscoveryEngine> snapshot = service.Snapshot();
  for (DiscoveryMode mode :
       {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
    RetrievedCandidates nominated =
        snapshot->candidate_index().Retrieve(t, mode, snapshot->repository());
    EXPECT_FALSE(nominated.fallback);
    EXPECT_EQ(nominated.tables.count(t.name()), 1u)
        << DiscoveryModeName(mode);
  }
}

// tsan-labelled: concurrent Get/Put/DropMemoryCache against one store
// directory must be free of data races (the serve registry consults the
// store from mutation threads while queries run).
TEST(ArtifactStoreConcurrencyTest, ConcurrentLoadVersusQuery) {
  std::string dir = FreshDir("concurrent");
  ArtifactStore store(dir);
  constexpr int kTables = 8;
  std::vector<uint64_t> fps;
  for (int i = 0; i < kTables; ++i) {
    const std::string name = std::string("c").append(std::to_string(i));
    auto artifact = std::make_shared<const TableDiscoveryArtifact>(
        BuildDiscoveryArtifact(SmallTable(name, i), 128));
    fps.push_back(artifact->fingerprint);
    ASSERT_TRUE(store.Put(artifact).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Readers: hammer Get across all fingerprints.
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&store, &fps, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint64_t fp : fps) {
          auto got = store.Get(fp);
          if (!got.ok() || *got == nullptr) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Writer: re-Put fresh artifacts (same fingerprints) while cache is
  // periodically dropped — the cold-restart path under load.
  threads.emplace_back([&store, &stop, &failures] {
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < kTables; ++i) {
        const std::string name = std::string("c").append(std::to_string(i));
        auto artifact = std::make_shared<const TableDiscoveryArtifact>(
            BuildDiscoveryArtifact(SmallTable(name, i), 128));
        if (!store.Put(std::move(artifact)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      store.DropMemoryCache();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace valentine
