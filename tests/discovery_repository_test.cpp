// Tests for TableRepository (discovery/repository.h): validation,
// copy-on-write snapshot semantics, store accounting, and a
// tsan-labelled churn-vs-query race check (snapshots taken by readers
// must stay safe while a writer mutates its own copy).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "discovery/repository.h"
#include "io/artifact_store.h"
#include "obs/metrics.h"

namespace valentine {
namespace {

Table SmallTable(const std::string& name, int seed) {
  Table t = MakeOpenDataTable(40, 1000 + seed);
  t.set_name(name);
  return t;
}

RepositoryOptions DefaultOptions() {
  RepositoryOptions opt;
  opt.signature_size = kDiscoverySignatureSize;
  return opt;
}

TEST(TableRepositoryTest, ValidatesRegistrations) {
  TableRepository repo(DefaultOptions());

  Table empty("empty");
  Status s = repo.AddTable(empty).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("has no columns"), std::string::npos);

  ASSERT_TRUE(repo.AddTable(SmallTable("t", 1)).ok());
  s = repo.AddTable(SmallTable("t", 2)).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("duplicate table name 't'"), std::string::npos);

  // U+001F is an ordinary name character, in table and column names.
  const std::string odd_name = std::string("odd\x1fname");
  Table odd(odd_name);
  Column c(std::string("c\x1f") + "1", DataType::kString);
  c.Append(Value::String("v"));
  ASSERT_TRUE(odd.AddColumn(std::move(c)).ok());
  Result<std::shared_ptr<const RegisteredTable>> added =
      repo.AddTable(std::move(odd));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(repo.Find(odd_name).get(), added->get());

  EXPECT_EQ(repo.RemoveTable("absent").code(), StatusCode::kNotFound);
}

TEST(TableRepositoryTest, EntriesCarryDerivedMetadata) {
  TableRepository repo(DefaultOptions());
  auto entry = repo.AddTable(SmallTable("t", 1));
  ASSERT_TRUE(entry.ok());
  const RegisteredTable& e = **entry;
  ASSERT_NE(e.artifact, nullptr);
  EXPECT_EQ(e.artifact->columns.size(), e.table.num_columns());
  EXPECT_EQ(e.name_tokens.size(), e.table.num_columns());
  EXPECT_EQ(repo.Find("t").get(), &e);
  EXPECT_EQ(repo.Find("absent"), nullptr);
}

TEST(TableRepositoryTest, CopyIsAnIndependentSnapshot) {
  TableRepository original(DefaultOptions());
  ASSERT_TRUE(original.AddTable(SmallTable("a", 1)).ok());
  ASSERT_TRUE(original.AddTable(SmallTable("b", 2)).ok());

  TableRepository snapshot = original;
  // The snapshot shares entry storage (no rebuild)...
  EXPECT_EQ(snapshot.Find("a").get(), original.Find("a").get());

  // ...but mutations are private to each side.
  ASSERT_TRUE(snapshot.AddTable(SmallTable("c", 3)).ok());
  ASSERT_TRUE(snapshot.RemoveTable("a").ok());
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(original.size(), 2u);
  EXPECT_TRUE(original.Contains("a"));
  EXPECT_FALSE(original.Contains("c"));
  EXPECT_FALSE(snapshot.Contains("a"));

  // Entry handles outlive the repositories that minted them.
  std::shared_ptr<const RegisteredTable> held = original.Find("a");
  ASSERT_TRUE(original.RemoveTable("a").ok());
  EXPECT_EQ(held->table.name(), "a");

  // Removal keeps registration order and lookups consistent for the
  // surviving entries.
  EXPECT_EQ(snapshot.entry(0).table.name(), "b");
  EXPECT_EQ(snapshot.entry(1).table.name(), "c");
  EXPECT_EQ(snapshot.Find("c").get(), &snapshot.entry(1));
}

TEST(TableRepositoryTest, StoreRoundTripSkipsRebuilds) {
  std::string dir = ::testing::TempDir() + "/valentine_repository_store_test";
  std::filesystem::remove_all(dir);
  ArtifactStore store(dir);
  MetricsRegistry metrics;
  RepositoryOptions opt = DefaultOptions();
  opt.store = &store;
  opt.metrics = &metrics;

  TableRepository first(opt);
  ASSERT_TRUE(first.AddTable(SmallTable("t", 1)).ok());
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_store_total",
                            {{"event", "build"}})
                ->value(),
            1u);
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_store_total",
                            {{"event", "hit"}})
                ->value(),
            0u);

  // A second repository over the same store resolves the same table by
  // content fingerprint: hit, no rebuild, and the entry shares the
  // artifact the first registration stored.
  TableRepository second(opt);
  auto entry = second.AddTable(SmallTable("t", 1));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_store_total",
                            {{"event", "hit"}})
                ->value(),
            1u);
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_store_total",
                            {{"event", "build"}})
                ->value(),
            1u);
  EXPECT_EQ((*entry)->artifact, first.Find("t")->artifact);
}

// tsan-labelled (VALENTINE_TSAN_TESTS): a writer mutating its own
// copy-on-write clone must never race readers iterating previously
// published snapshots — the serving layer's rebuild pattern
// (DiscoveryService publishes each rebuilt snapshot under its own
// registry lock; entry storage itself is shared lock-free).
TEST(TableRepositoryTest, SnapshotReadersNeverRaceCloneWriter) {
  auto published = std::make_shared<const TableRepository>([] {
    TableRepository repo(DefaultOptions());
    for (int i = 0; i < 8; ++i) {
      (void)repo.AddTable(SmallTable("seed_" + std::to_string(i), i));
    }
    return repo;
  }());

  std::atomic<bool> stop{false};
  // Publication slot: the lock only covers the shared_ptr handoff, so
  // every read of repository state happens on an unlocked snapshot.
  std::mutex current_mu;
  std::shared_ptr<const TableRepository> current = published;
  auto load_current = [&] {
    std::lock_guard<std::mutex> lock(current_mu);
    return current;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t touched = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const TableRepository> snap = load_current();
        for (size_t i = 0; i < snap->size(); ++i) {
          touched += snap->entry(i).artifact->columns.size();
        }
        std::shared_ptr<const RegisteredTable> e = snap->Find("seed_0");
        if (e != nullptr) touched += e->name_tokens.size();
      }
      EXPECT_GT(touched, 0u);
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < 40; ++i) {
      TableRepository next = *load_current();
      std::string churn = "churn_" + std::to_string(i);
      ASSERT_TRUE(next.AddTable(SmallTable(churn, 100 + i)).ok());
      if (i % 3 == 2) {
        ASSERT_TRUE(next.RemoveTable(churn).ok());
      }
      auto replacement =
          std::make_shared<const TableRepository>(std::move(next));
      std::lock_guard<std::mutex> lock(current_mu);
      current = std::move(replacement);
    }
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GE(load_current()->size(), 8u);
}

}  // namespace
}  // namespace valentine
