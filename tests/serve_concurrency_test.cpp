// Thread-safety tests for the serving registry (tsan-labelled):
// concurrent table register/unregister racing discovery queries through
// DiscoveryService::Handle. The copy-on-write contract under test:
// queries never crash, never see a half-built engine, and a snapshot
// taken before the churn keeps answering byte-identically to a direct
// engine over the stable tables — no matter what mutates around it —
// and every later snapshot keeps answering like a monolithic index
// over its own tables while churn merges and compacts the LSH segments
// it shares with newer ones. Engines over shared entries also share each
// entry's reranker artifact, and race to build it first.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "serve/service.h"
#include "serve_test_util.h"

namespace valentine {
namespace serve {
namespace {

using testing::MakeServeTable;
using testing::ServeTableJson;

HttpRequest MakeRequest(const std::string& method, const std::string& target,
                        const std::string& body = "") {
  HttpRequest r;
  r.method = method;
  r.target = target;
  r.version = "HTTP/1.1";
  r.body = body;
  return r;
}

TEST(ServeConcurrency, RegistrationChurnRacesQueries) {
  constexpr int kChurnThreads = 2;
  constexpr int kQueryThreads = 2;
  constexpr int kChurnIters = 25;
  // Tables registered (then unregistered) per churn iteration: enough
  // that registrations cross segment merges and unregistrations cross
  // half-removed compactions of segments older snapshots still share.
  constexpr int kBatch = 3;
  constexpr int kQueryIters = 15;

  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  DiscoveryService service(options);
  DiscoveryEngine direct;
  for (int i = 0; i < 3; ++i) {
    Table t = MakeServeTable("stable_" + std::to_string(i), 20, i + 2);
    ASSERT_TRUE(service.RegisterTable(t).ok());
    ASSERT_TRUE(direct.AddTable(std::move(t)).ok());
  }
  const Table query = MakeServeTable("q", 20, 3);
  const std::string expected = RenderDiscoveryResults(
      "q", "unionable", 3, direct.FindUnionable(query, 3));

  // The snapshot predates every churn below; under COW it must keep
  // answering byte-identically while mutations race past it.
  std::shared_ptr<const DiscoveryEngine> snapshot = service.Snapshot();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < kChurnThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kChurnIters; ++i) {
        std::vector<std::string> names;
        for (int b = 0; b < kBatch; ++b) {
          names.push_back("churn_" + std::to_string(t) + "_" +
                          std::to_string(i) + "_" + std::to_string(b));
          HttpResponse reg = service.Handle(MakeRequest(
              "POST", "/v1/tables", ServeTableJson(names.back(), 8, t + 4)));
          if (reg.status != 200) ++failures;
        }
        for (const std::string& name : names) {
          HttpResponse unreg =
              service.Handle(MakeRequest("DELETE", "/v1/tables/" + name));
          if (unreg.status != 200) ++failures;
        }
      }
    });
  }

  const std::string query_body =
      "{\"table\":" + ServeTableJson("q", 20, 3) + ",\"k\":3}";
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::shared_ptr<const DiscoveryEngine>> held;
      for (int i = 0; i < kQueryIters; ++i) {
        // Live query: must always answer 200 with parseable JSON, no
        // matter which churn generation it lands on.
        HttpResponse r = service.Handle(
            MakeRequest("POST", "/v1/discovery/unionable", query_body));
        if (r.status != 200 || !ParseJson(r.body).ok()) ++failures;
        // Snapshot query: byte-identical to the direct engine, always.
        std::string from_snapshot = RenderDiscoveryResults(
            "q", "unionable", 3, snapshot->FindUnionable(query, 3));
        if (from_snapshot != expected) ++failures;
        // An older churn generation, held while later mutations merge
        // and compact the segments it shares: it answers byte-identically
        // to a monolithic index over its own tables.
        held.push_back(service.Snapshot());
        const DiscoveryEngine& older = *held[held.size() / 2];
        auto monolith = DiscoveryEngine::FromRepository(DiscoveryOptions(),
                                                        older.repository());
        if (!monolith.ok() ||
            RenderDiscoveryResults("q", "unionable", 3,
                                   older.FindUnionable(query, 3)) !=
                RenderDiscoveryResults(
                    "q", "unionable", 3,
                    monolith.ValueOrDie()->FindUnionable(query, 3))) {
          ++failures;
        }
      }
    });
  }

  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // All churn tables are gone: the service now answers byte-identically
  // to the direct engine over exactly the stable tables.
  EXPECT_EQ(service.num_tables(), 3u);
  HttpResponse final_response = service.Handle(
      MakeRequest("POST", "/v1/discovery/unionable", query_body));
  ASSERT_EQ(final_response.status, 200) << final_response.body;
  EXPECT_EQ(final_response.body, expected);

  // Merges re-banded tables (more banded than registered), and every
  // churned table was shed by a merge or a compaction: no segment is
  // half removed, so fewer than 2 x 3 entries remain banded.
  const uint64_t registrations = 3 + kChurnThreads * kChurnIters * kBatch;
  EXPECT_GT(metrics.CounterValue("valentine_discovery_index_banded_total"),
            registrations);
  size_t banded = 0;
  for (const auto& segment :
       service.Snapshot()->candidate_index().Segments()) {
    EXPECT_LT(2 * segment.removed, segment.banded);
    banded += segment.banded;
  }
  EXPECT_LT(banded, 6u);
}

TEST(ServeConcurrency, EnginesOverSharedEntriesRaceToPrepareThem) {
  // Two service snapshots and a FromRepository engine share every
  // registry entry, so they share each entry's reranker artifact slot.
  // Started together on cold entries, they race to build and install
  // those artifacts; every answer must equal a sequential engine's over
  // its own copies of the tables.
  DiscoveryService service;
  DiscoveryEngine sequential;
  for (int i = 0; i < 4; ++i) {
    Table t = MakeServeTable("t" + std::to_string(i), 25, i + 2);
    ASSERT_TRUE(service.RegisterTable(t).ok());
    ASSERT_TRUE(sequential.AddTable(std::move(t)).ok());
  }
  const Table query = MakeServeTable("q", 25, 3);
  const std::string expected_join = RenderDiscoveryResults(
      "q", "joinable", 4, sequential.FindJoinable(query, 4));
  const std::string expected_union = RenderDiscoveryResults(
      "q", "unionable", 4, sequential.FindUnionable(query, 4));

  std::shared_ptr<const DiscoveryEngine> first = service.Snapshot();
  ASSERT_TRUE(service.RegisterTable(MakeServeTable("passing", 8, 5)).ok());
  ASSERT_TRUE(service.UnregisterTable("passing").ok());
  std::shared_ptr<const DiscoveryEngine> second = service.Snapshot();
  ASSERT_NE(first, second);
  auto rebuilt =
      DiscoveryEngine::FromRepository(DiscoveryOptions(), first->repository());
  ASSERT_TRUE(rebuilt.ok());
  const std::vector<const DiscoveryEngine*> engines = {
      first.get(), second.get(), rebuilt.ValueOrDie().get()};
  for (const DiscoveryEngine* engine : engines) {
    ASSERT_EQ(engine->repository().Find("t0"), first->repository().Find("t0"))
        << "the engines must share the registry entries";
  }

  constexpr size_t kThreadsPerEngine = 2;
  const size_t threads_total = engines.size() * kThreadsPerEngine;
  std::vector<std::string> joins(threads_total), unions(threads_total);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < threads_total; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const DiscoveryEngine& engine = *engines[t % engines.size()];
      // Half the threads start with the other mode, so both modes
      // race for the same slots.
      if (t % 2 == 0) {
        joins[t] = RenderDiscoveryResults("q", "joinable", 4,
                                          engine.FindJoinable(query, 4));
      }
      unions[t] = RenderDiscoveryResults("q", "unionable", 4,
                                         engine.FindUnionable(query, 4));
      if (t % 2 != 0) {
        joins[t] = RenderDiscoveryResults("q", "joinable", 4,
                                          engine.FindJoinable(query, 4));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < threads_total; ++t) {
    EXPECT_EQ(joins[t], expected_join) << "thread " << t;
    EXPECT_EQ(unions[t], expected_union) << "thread " << t;
  }
}

TEST(ServeConcurrency, ParallelQueriesOnOneSnapshotAgree) {
  DiscoveryService service;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        service
            .RegisterTable(MakeServeTable("t" + std::to_string(i), 25, i + 2))
            .ok());
  }
  const std::string body =
      "{\"table\":" + ServeTableJson("q", 25, 3) + ",\"k\":4}";
  HttpResponse reference =
      service.Handle(MakeRequest("POST", "/v1/discovery/joinable", body));
  ASSERT_EQ(reference.status, 200);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        HttpResponse r = service.Handle(
            MakeRequest("POST", "/v1/discovery/joinable", body));
        if (r.status != 200 || r.body != reference.body) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace valentine
