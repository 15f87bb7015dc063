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
  TableDiscoveryArtifact artifact = BuildDiscoveryArtifact(t, 128, false);
  artifact.columns[1].sketch =
      LazoSketch::Build(t.column(1).DistinctStringSet(), 64);
  return SerializeDiscoveryArtifact(artifact);
}

/// Writes `bytes` where a store keeps t's artifact.
void PlantFile(const std::string& dir, const Table& t,
               const std::string& bytes) {
  ArtifactStore store(dir);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(TableContentFingerprint(t)));
  std::ofstream out(dir + "/" + hex + ".vda", std::ios::binary);
  out << bytes;
}

void PlantMixedWidthFile(const std::string& dir, const Table& t) {
  PlantFile(dir, t, MixedWidthBytes(t));
}

/// t's artifact as a version 1 file would label it.
std::string VersionOneBytes(const Table& t) {
  std::string bytes =
      SerializeDiscoveryArtifact(BuildDiscoveryArtifact(t, 128, true));
  bytes[4] = '\x01';
  return bytes;
}

/// A signature as the codec writes it after a profile's unset sketch
/// flag: empty-set byte, u64 width, then every min, little-endian.
std::string SignatureBytes(const MinHashSignature& sig) {
  std::string out(1, sig.empty_set() ? '\x01' : '\x00');
  auto put_u64 = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put_u64(sig.size());
  for (uint64_t m : sig.mins()) put_u64(m);
  return out;
}

TEST(ArtifactCodecTest, RoundTripIsByteIdentical) {
  Table t = MakeTpcdiProspect(120, 77);
  TableDiscoveryArtifact artifact =
      BuildDiscoveryArtifact(t, /*signature_size=*/128,
                             /*with_profiles=*/true);
  std::string bytes = SerializeDiscoveryArtifact(artifact);

  Result<TableDiscoveryArtifact> parsed = ParseDiscoveryArtifact(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  // The canonical-serialization contract: serialize(parse(bytes)) is
  // byte-identical to the original, including every profile artifact.
  EXPECT_EQ(SerializeDiscoveryArtifact(*parsed), bytes);
  EXPECT_EQ(parsed->fingerprint, TableContentFingerprint(t));
  EXPECT_EQ(parsed->table_name, t.name());
  ASSERT_EQ(parsed->columns.size(), t.num_columns());
  EXPECT_EQ(parsed->columns[0].name, t.column(0).name());
  EXPECT_TRUE(parsed->has_profiles);
  ASSERT_EQ(parsed->profiles.size(), t.num_columns());
}

// Each column's signature is written once: a profile whose MinHash is
// the column's sketch stores a flag byte instead of its 1,033 bytes,
// and parsing copies the sketch back. Under every spec, shared or not,
// the round trip is byte-identical and every profile keeps its MinHash.
TEST(ArtifactCodecTest, WritesEachColumnSignatureOnce) {
  Table t = MakeTpcdiProspect(80, 31);
  ProfileSpec below_cap;
  below_cap.set_cap = 5;
  ProfileSpec narrow;
  narrow.minhash_hashes = 64;
  for (const ProfileSpec& spec : {ProfileSpec{}, below_cap, narrow}) {
    const TableDiscoveryArtifact artifact =
        BuildDiscoveryArtifact(t, 128, true, spec);
    const std::string bytes = SerializeDiscoveryArtifact(artifact);
    Result<TableDiscoveryArtifact> parsed = ParseDiscoveryArtifact(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(SerializeDiscoveryArtifact(*parsed), bytes);
    for (size_t i = 0; i < t.num_columns(); ++i) {
      EXPECT_EQ(parsed->profiles[i].minhash().mins(),
                artifact.profiles[i].minhash().mins())
          << "minhash_hashes=" << spec.minhash_hashes << " column " << i;
      EXPECT_EQ(parsed->profiles[i].minhash().empty_set(),
                artifact.profiles[i].minhash().empty_set());
    }
  }

  // Sketches of other value sets at the same width: no profile shares
  // one, so every profile writes its own signature after the flag,
  // 1 + 8 + 128 * 8 more bytes each.
  const TableDiscoveryArtifact shared = BuildDiscoveryArtifact(t, 128, true);
  TableDiscoveryArtifact unshared = shared;
  for (size_t i = 0; i < t.num_columns(); ++i) {
    const Column& other = t.column((i + 1) % t.num_columns());
    unshared.columns[i].sketch =
        LazoSketch::Build(other.DistinctStringSet(), 128);
    unshared.columns[i].sketch.cardinality =
        shared.columns[i].sketch.cardinality;
    ASSERT_NE(unshared.columns[i].sketch.signature.mins(),
              shared.profiles[i].minhash().mins());
  }
  EXPECT_EQ(SerializeDiscoveryArtifact(unshared).size() -
                SerializeDiscoveryArtifact(shared).size(),
            t.num_columns() * size_t{1033});
  Result<TableDiscoveryArtifact> reparsed =
      ParseDiscoveryArtifact(SerializeDiscoveryArtifact(unshared));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->profiles[0].minhash().mins(),
            shared.profiles[0].minhash().mins());
}

TEST(ArtifactCodecTest, SerializationIsDeterministicAcrossBuilds) {
  Table t = SmallTable("det", 3);
  std::string a = SerializeDiscoveryArtifact(
      BuildDiscoveryArtifact(t, 128, /*with_profiles=*/true));
  std::string b = SerializeDiscoveryArtifact(
      BuildDiscoveryArtifact(t, 128, /*with_profiles=*/true));
  EXPECT_EQ(a, b);
}

TEST(ArtifactCodecTest, LoadedProfileServesLikeFreshBuild) {
  Table t = MakeTpcdiProspect(100, 5);
  TableDiscoveryArtifact artifact = BuildDiscoveryArtifact(t, 128, true);
  Result<TableDiscoveryArtifact> parsed =
      ParseDiscoveryArtifact(SerializeDiscoveryArtifact(artifact));
  ASSERT_TRUE(parsed.ok());
  std::shared_ptr<const TableProfile> loaded =
      TableProfileFromArtifact(*parsed);
  ASSERT_NE(loaded, nullptr);
  TableProfile fresh = TableProfile::Build(t, ProfileSpec{});
  ASSERT_EQ(loaded->num_columns(), fresh.num_columns());
  for (size_t i = 0; i < fresh.num_columns(); ++i) {
    const ColumnProfile& l = loaded->column(i);
    const ColumnProfile& f = fresh.column(i);
    EXPECT_EQ(l.distinct(), f.distinct());
    EXPECT_EQ(l.full_distinct_count(), f.full_distinct_count());
    EXPECT_EQ(l.distinct_set(), f.distinct_set());
    EXPECT_EQ(l.minhash().mins(), f.minhash().mins());
    EXPECT_EQ(l.minhash().empty_set(), f.minhash().empty_set());
    EXPECT_EQ(l.histogram().centers(), f.histogram().centers());
    EXPECT_EQ(l.histogram().masses(), f.histogram().masses());
    EXPECT_EQ(l.name_tokens(), f.name_tokens());
    EXPECT_DOUBLE_EQ(l.numeric_fraction(), f.numeric_fraction());
  }
}

// A column's sketch is its profile's MinHash only when that signature
// covers the whole value set at the sketch's width; under every spec it
// equals the sketch of the column's value set.
TEST(ArtifactCodecTest, SketchesEqualValueSetSketchesUnderAnySpec) {
  Table t = MakeTpcdiProspect(80, 31);
  ProfileSpec below_cap;
  below_cap.set_cap = 5;
  ProfileSpec uncapped;
  uncapped.set_cap = 0;
  ProfileSpec narrow;
  narrow.minhash_hashes = 64;
  for (const ProfileSpec& spec : {ProfileSpec{}, below_cap, uncapped, narrow}) {
    for (bool with_profiles : {true, false}) {
      TableDiscoveryArtifact artifact =
          BuildDiscoveryArtifact(t, 128, with_profiles, spec);
      ASSERT_EQ(artifact.columns.size(), t.num_columns());
      for (size_t i = 0; i < t.num_columns(); ++i) {
        const LazoSketch want =
            LazoSketch::Build(t.column(i).DistinctStringSet(), 128);
        const LazoSketch& got = artifact.columns[i].sketch;
        EXPECT_EQ(got.signature.mins(), want.signature.mins())
            << "set_cap=" << spec.set_cap << " column " << i;
        EXPECT_EQ(got.signature.empty_set(), want.signature.empty_set());
        EXPECT_EQ(got.cardinality, want.cardinality);
      }
    }
  }
}

TEST(ArtifactCodecTest, RejectsCorruptBytes) {
  Table t = SmallTable("corrupt", 1);
  std::string bytes =
      SerializeDiscoveryArtifact(BuildDiscoveryArtifact(t, 128, true));

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
  // A version 1 file, which wrote every signature twice.
  Result<TableDiscoveryArtifact> v1 =
      ParseDiscoveryArtifact(VersionOneBytes(t));
  EXPECT_EQ(v1.status().code(), StatusCode::kParseError);
  EXPECT_NE(v1.status().message().find("unsupported version 1"),
            std::string::npos);

  // A set sketch flag on a profile whose spec builds another width: the
  // first profile of a 64-slot spec under 128-slot sketches, its unset
  // flag and own signature replaced by a set flag.
  ProfileSpec narrow;
  narrow.minhash_hashes = 64;
  const TableDiscoveryArtifact artifact =
      BuildDiscoveryArtifact(t, 128, true, narrow);
  std::string flagged = SerializeDiscoveryArtifact(artifact);
  const std::string own =
      std::string(1, '\x00') + SignatureBytes(artifact.profiles[0].minhash());
  const size_t at = flagged.find(own);
  ASSERT_NE(at, std::string::npos);
  flagged.replace(at, own.size(), std::string(1, '\x01'));
  Result<TableDiscoveryArtifact> wrong_width = ParseDiscoveryArtifact(flagged);
  EXPECT_EQ(wrong_width.status().code(), StatusCode::kParseError);
  EXPECT_NE(wrong_width.status().message().find("another width"),
            std::string::npos)
      << wrong_width.status().message();
}

TEST(ArtifactStoreTest, PutGetRemoveRoundTrip) {
  ArtifactStore store(FreshDir("roundtrip"));
  Table t = SmallTable("rt", 2);
  auto artifact = std::make_shared<const TableDiscoveryArtifact>(
      BuildDiscoveryArtifact(t, 128, true));
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
      BuildDiscoveryArtifact(t, 128, false));
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
      ASSERT_TRUE(
          engine.AddTable(SmallTable("t" + std::to_string(i), i % 3)).ok());
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
      ASSERT_TRUE(
          engine.AddTable(SmallTable("t" + std::to_string(i), i % 3)).ok());
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
        BuildDiscoveryArtifact(t, /*signature_size=*/32, false));
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

// A version 1 file is not served: registration rebuilds it and writes
// the current version in its place.
TEST(ArtifactStoreTest, VersionOneFileIsRebuiltByEngine) {
  std::string dir = FreshDir("version_one");
  Table t = SmallTable("v1_t", 7);
  PlantFile(dir, t, VersionOneBytes(t));
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
  ArtifactStore reopened(dir);
  EXPECT_TRUE(reopened.Get(TableContentFingerprint(t)).ok());
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
    auto artifact = std::make_shared<const TableDiscoveryArtifact>(
        BuildDiscoveryArtifact(SmallTable("c" + std::to_string(i), i), 128,
                               false));
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
        auto artifact = std::make_shared<const TableDiscoveryArtifact>(
            BuildDiscoveryArtifact(SmallTable("c" + std::to_string(i), i),
                                   128, false));
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
