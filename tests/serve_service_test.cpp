// Tests for the HTTP-facing discovery service (serve/service.h):
// JSON↔Table codecs, routing, the copy-on-write registry, the
// byte-identity contract against a directly-driven DiscoveryEngine,
// the zero-budget regression at the serving boundary, and registry
// entries keeping their reranker artifacts across mutations.

#include "serve/service.h"

#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/artifact_store.h"
#include "matchers/coma.h"
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

TEST(ServeTableFromJson, DecodesTypedColumns) {
  Result<JsonValue> doc = ParseJson(
      "{\"name\":\"t\",\"columns\":["
      "{\"name\":\"s\",\"type\":\"string\",\"values\":[\"a\",null,\"b\"]},"
      "{\"name\":\"n\",\"values\":[1,2.5,3]}]}");
  ASSERT_TRUE(doc.ok());
  Result<Table> table = TableFromJson(doc.ValueOrDie());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const Table& t = table.ValueOrDie();
  EXPECT_EQ(t.name(), "t");
  ASSERT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.column(0).type(), DataType::kString);
  EXPECT_EQ(t.column(0).NullCount(), 1u);
  // Untyped column infers from the first non-null cell; integral JSON
  // numbers decode as int64.
  EXPECT_EQ(t.column(1).type(), DataType::kInt64);
  EXPECT_EQ(t.column(1)[0].kind(), DataType::kInt64);
  EXPECT_EQ(t.column(1)[1].kind(), DataType::kFloat64);
}

TEST(ServeTableFromJson, RejectsBadShapes) {
  for (const char* doc : {
           "[]",
           "{\"columns\":[]}",                       // no name
           "{\"name\":\"\",\"columns\":[]}",         // empty name
           "{\"name\":\"t\"}",                       // no columns
           "{\"name\":\"t\",\"columns\":[{}]}",      // column without name
           "{\"name\":\"t\",\"columns\":[{\"name\":\"c\"}]}",  // no values
           "{\"name\":\"t\",\"columns\":"
           "[{\"name\":\"c\",\"values\":[[1]]}]}",   // nested cell
           "{\"name\":\"t\",\"columns\":"
           "[{\"name\":\"c\",\"type\":\"money\",\"values\":[]}]}",
           "{\"name\":\"t\",\"columns\":["
           "{\"name\":\"a\",\"values\":[1]},"
           "{\"name\":\"b\",\"values\":[1,2]}]}",    // ragged lengths
       }) {
    Result<JsonValue> parsed = ParseJson(doc);
    ASSERT_TRUE(parsed.ok()) << doc;
    Result<Table> table = TableFromJson(parsed.ValueOrDie());
    EXPECT_FALSE(table.ok()) << doc;
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument) << doc;
  }
}

TEST(ServeService, UnitSeparatorNamesServeLikeADirectEngine) {
  // U+001F is an ordinary name character: a table and a column whose
  // names hold it register over the wire and are served byte for byte
  // as a direct engine serves them (k covers all four tables).
  std::string table_json = ServeTableJson("evil\\u001ftwin", 30, 3);
  const std::string key_column = "\"name\":\"key\"";
  table_json.replace(table_json.find(key_column), key_column.size(),
                     "\"name\":\"k\\u001fey\"");
  Result<JsonValue> parsed = ParseJson(table_json);
  ASSERT_TRUE(parsed.ok()) << table_json;
  Result<Table> decoded = TableFromJson(parsed.ValueOrDie());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->name(), std::string("evil\x1f") + "twin");
  EXPECT_EQ(decoded->column(0).name(), std::string("k\x1f") + "ey");

  DiscoveryService service;
  DiscoveryEngine direct;
  HttpResponse created =
      service.Handle(MakeRequest("POST", "/v1/tables", table_json));
  ASSERT_EQ(created.status, 200) << created.body;
  ASSERT_TRUE(direct.AddTable(std::move(decoded).ValueOrDie()).ok());
  for (size_t i = 0; i < 3; ++i) {
    Table t = MakeServeTable("table_" + std::to_string(i), 30, i + 2);
    ASSERT_TRUE(service.RegisterTable(t).ok());
    ASSERT_TRUE(direct.AddTable(std::move(t)).ok());
  }
  Table query = MakeServeTable("query_t", 30, 3);

  for (const std::string mode : {"joinable", "unionable"}) {
    HttpResponse served = service.Handle(MakeRequest(
        "POST", "/v1/discovery/" + mode,
        "{\"table\":" + ServeTableJson("query_t", 30, 3) + ",\"k\":4}"));
    ASSERT_EQ(served.status, 200) << served.body;
    std::vector<DiscoveryResult> expected =
        mode == "joinable" ? direct.FindJoinable(query, 4)
                           : direct.FindUnionable(query, 4);
    EXPECT_EQ(served.body,
              RenderDiscoveryResults("query_t", mode, 4, expected))
        << "mode=" << mode;
    EXPECT_NE(served.body.find("evil\\u001ftwin"), std::string::npos)
        << "mode=" << mode << ": " << served.body;
  }
}

TEST(ServeService, RegistryRebuildsNeverRepayArtifactWork) {
  // Copy-on-write registry rebuilds operate on TableRepository
  // snapshots whose entries are shared, so after N registrations of
  // distinct tables the store saw exactly N artifact builds and ZERO
  // re-consultations: previously registered tables are carried by the
  // snapshot, not re-registered through the store (the pre-pipeline
  // service paid 0+1+...+(N-1) store hits here).
  std::string dir = ::testing::TempDir() + "/valentine_serve_store_test";
  std::filesystem::remove_all(dir);
  ArtifactStore store(dir);
  MetricsRegistry metrics;
  ServiceOptions opt;
  opt.metrics = &metrics;
  opt.store = &store;
  DiscoveryService service(opt);

  constexpr int kTables = 4;
  for (int i = 0; i < kTables; ++i) {
    ASSERT_TRUE(
        service
            .RegisterTable(MakeServeTable("t" + std::to_string(i), 20, 3))
            .ok());
  }
  uint64_t builds = metrics
                        .CounterFor("valentine_discovery_store_total",
                                    {{"event", "build"}})
                        ->value();
  uint64_t hits = metrics
                      .CounterFor("valentine_discovery_store_total",
                                  {{"event", "hit"}})
                      ->value();
  EXPECT_EQ(builds, static_cast<uint64_t>(kTables));
  EXPECT_EQ(hits, 0u);

  // Unregistering rebuilds the engine from the shrunk snapshot —
  // still no store traffic for the surviving tables.
  ASSERT_TRUE(service.UnregisterTable("t0").ok());
  EXPECT_EQ(service.num_tables(), static_cast<size_t>(kTables - 1));
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_store_total",
                            {{"event", "hit"}})
                ->value(),
            0u);
  EXPECT_EQ(metrics
                .CounterFor("valentine_discovery_store_total",
                            {{"event", "build"}})
                ->value(),
            static_cast<uint64_t>(kTables));
}

/// The names of the tables Prepare ran on, shared by every matcher
/// instance that logs into it.
class PrepareLog {
 public:
  void Record(const std::string& table) {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.push_back(table);
  }
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(tables_, {});
  }

 private:
  std::mutex mu_;
  std::vector<std::string> tables_;
};

/// COMA-Instances, the engine's default matcher, logging every Prepare.
class PrepareLoggingComa : public ComaMatcher {
 public:
  explicit PrepareLoggingComa(PrepareLog* log)
      : ComaMatcher(InstancesOptions()), log_(log) {}

  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const TableProfile* profile,
      const MatchContext& context) const override {
    log_->Record(table.name());
    return ComaMatcher::Prepare(table, profile, context);
  }

 private:
  static ComaOptions InstancesOptions() {
    ComaOptions options;
    options.strategy = ComaStrategy::kInstances;
    return options;
  }

  PrepareLog* log_;
};

TEST(ServeService, MutationsKeepCandidateArtifacts) {
  // Each registry entry owns its reranker artifact. Registering and
  // unregistering unrelated tables publishes new service engines over
  // the same entries, or mutates the direct engine's repository; a
  // repeated query may prepare its own table again but no candidate
  // the warm query already scored.
  PrepareLog service_log;
  ServiceOptions service_options;
  service_options.matcher_factory = [&service_log] {
    return std::make_unique<PrepareLoggingComa>(&service_log);
  };
  DiscoveryService service(service_options);
  PrepareLog direct_log;
  DiscoveryOptions direct_options;
  direct_options.matcher = std::make_unique<PrepareLoggingComa>(&direct_log);
  DiscoveryEngine direct(std::move(direct_options));
  for (int i = 0; i < 4; ++i) {
    Table t = MakeServeTable("t" + std::to_string(i), 20, i + 2);
    ASSERT_TRUE(service.RegisterTable(t).ok());
    ASSERT_TRUE(direct.AddTable(std::move(t)).ok());
  }

  const Table query = MakeServeTable("q", 20, 3);
  const std::string body =
      "{\"table\":" + ServeTableJson("q", 20, 3) + ",\"k\":4}";
  auto query_service = [&] {
    for (const char* route :
         {"/v1/discovery/joinable", "/v1/discovery/unionable"}) {
      HttpResponse r = service.Handle(MakeRequest("POST", route, body));
      ASSERT_EQ(r.status, 200) << r.body;
    }
  };
  auto query_direct = [&] {
    (void)direct.FindJoinable(query, 4);
    (void)direct.FindUnionable(query, 4);
  };
  auto churn_service = [&] {
    for (const char* name : {"unrelated_a", "unrelated_b"}) {
      ASSERT_TRUE(service.RegisterTable(MakeServeTable(name, 8, 7)).ok());
    }
    ASSERT_TRUE(service.UnregisterTable("unrelated_a").ok());
    ASSERT_TRUE(service.UnregisterTable("unrelated_b").ok());
  };
  auto churn_direct = [&] {
    for (const char* name : {"unrelated_a", "unrelated_b"}) {
      ASSERT_TRUE(direct.AddTable(MakeServeTable(name, 8, 7)).ok());
    }
    ASSERT_TRUE(direct.RemoveTable("unrelated_a").ok());
    ASSERT_TRUE(direct.RemoveTable("unrelated_b").ok());
  };

  struct Target {
    const char* name;
    PrepareLog* log;
    std::function<void()> query;
    std::function<void()> churn;
  };
  for (const Target& target :
       {Target{"service", &service_log, query_service, churn_service},
        Target{"direct", &direct_log, query_direct, churn_direct}}) {
    SCOPED_TRACE(target.name);
    target.log->Take();
    target.query();
    std::set<std::string> scored;
    for (const std::string& table : target.log->Take()) {
      if (table != "q") scored.insert(table);
    }
    ASSERT_FALSE(scored.empty()) << "the warm query scored no candidate";

    target.churn();
    target.query();
    for (const std::string& table : target.log->Take()) {
      EXPECT_EQ(scored.count(table), 0u)
          << "the repeated query re-prepared candidate " << table;
    }
  }
}

TEST(ServeService, HealthzGolden) {
  DiscoveryService service;
  HttpResponse r = service.Handle(MakeRequest("GET", "/healthz"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "{\"status\":\"ok\",\"tables\":0}");
  ASSERT_TRUE(service.RegisterTable(MakeServeTable("t1", 10, 3)).ok());
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/healthz")).body,
            "{\"status\":\"ok\",\"tables\":1}");
}

TEST(ServeService, MetricsEndpointRendersRegistry) {
  MetricsRegistry metrics;
  metrics.CounterFor("my_metric")->Increment(7);
  ServiceOptions opt;
  opt.metrics = &metrics;
  DiscoveryService service(opt);
  HttpResponse r = service.Handle(MakeRequest("GET", "/metrics"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "text/plain; version=0.0.4");
  EXPECT_NE(r.body.find("my_metric 7"), std::string::npos) << r.body;
  // The scrape itself is counted, visible on the next scrape.
  HttpResponse again = service.Handle(MakeRequest("GET", "/metrics"));
  EXPECT_NE(again.body.find("valentine_serve_requests_total"),
            std::string::npos);
}

TEST(ServeService, RegisterUnregisterLifecycle) {
  DiscoveryService service;
  HttpResponse created = service.Handle(
      MakeRequest("POST", "/v1/tables", ServeTableJson("orders", 12, 3)));
  EXPECT_EQ(created.status, 200);
  EXPECT_EQ(created.body, "{\"registered\":\"orders\",\"tables\":1}");

  HttpResponse dup = service.Handle(
      MakeRequest("POST", "/v1/tables", ServeTableJson("orders", 12, 3)));
  EXPECT_EQ(dup.status, 400);
  EXPECT_NE(dup.body.find("\"InvalidArgument\""), std::string::npos);

  HttpResponse gone = service.Handle(
      MakeRequest("DELETE", "/v1/tables/orders"));
  EXPECT_EQ(gone.status, 200);
  EXPECT_EQ(gone.body, "{\"tables\":0,\"unregistered\":\"orders\"}");

  HttpResponse missing = service.Handle(
      MakeRequest("DELETE", "/v1/tables/orders"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("\"NotFound\""), std::string::npos);
}

TEST(ServeService, UnregisterPercentDecodesTheTableName) {
  // A name holding '/', '?', '%' or ' ' registers fine through JSON and
  // is removed through its percent-encoded path segment.
  DiscoveryService service;
  const std::pair<std::string, std::string> kNames[] = {
      {"a/b", "a%2Fb"}, {"q?x", "q%3Fx"}, {"50%", "50%25"}, {"x y", "x%20y"}};
  for (const auto& [name, encoded] : kNames) {
    ASSERT_EQ(service
                  .Handle(MakeRequest("POST", "/v1/tables",
                                      ServeTableJson(name, 6, 3)))
                  .status,
              200)
        << name;
  }
  // Unencoded, each addresses a different (absent) table or none.
  EXPECT_EQ(service.Handle(MakeRequest("DELETE", "/v1/tables/a/b")).status,
            404);
  EXPECT_EQ(service.Handle(MakeRequest("DELETE", "/v1/tables/q?x")).status,
            404);  // the query string is cut off: this addresses "q"
  size_t remaining = 4;
  for (const auto& [name, encoded] : kNames) {
    HttpResponse gone =
        service.Handle(MakeRequest("DELETE", "/v1/tables/" + encoded));
    ASSERT_EQ(gone.status, 200) << name << ": " << gone.body;
    --remaining;
    JsonValue expected = JsonValue::Object();
    expected.Set("tables",
                 JsonValue::Number(static_cast<double>(remaining)));
    expected.Set("unregistered", JsonValue::String(name));
    EXPECT_EQ(gone.body, WriteJson(expected));
  }
  EXPECT_EQ(service.num_tables(), 0u);

  // Malformed escapes are a client error, not a missing table.
  for (const std::string bad : {"%zz", "%4", "ab%", "%g0"}) {
    HttpResponse r = service.Handle(MakeRequest("DELETE", "/v1/tables/" + bad));
    EXPECT_EQ(r.status, 400) << bad;
    EXPECT_NE(r.body.find("\"InvalidArgument\""), std::string::npos) << bad;
  }
}

TEST(ServeService, RoutingErrors) {
  DiscoveryService service;
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/nope")).status, 404);
  EXPECT_EQ(service.Handle(MakeRequest("POST", "/healthz")).status, 405);
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/v1/tables")).status, 405);
  EXPECT_EQ(service.Handle(MakeRequest("PUT", "/v1/discovery/joinable"))
                .status,
            405);
  EXPECT_EQ(
      service.Handle(MakeRequest("POST", "/v1/tables", "{not json")).status,
      400);
}

TEST(ServeService, DiscoveryMatchesDirectEngineByteForByte) {
  // Same tables, two paths: the service's HTTP surface vs a hand-built
  // DiscoveryEngine, both rendered through RenderDiscoveryResults.
  DiscoveryService service;
  DiscoveryEngine direct;
  for (size_t i = 0; i < 4; ++i) {
    Table t = MakeServeTable("table_" + std::to_string(i), 30, i + 2);
    ASSERT_TRUE(service.RegisterTable(t).ok());
    ASSERT_TRUE(direct.AddTable(std::move(t)).ok());
  }
  Table query = MakeServeTable("query_t", 30, 3);

  for (const std::string mode : {"joinable", "unionable"}) {
    HttpResponse served = service.Handle(MakeRequest(
        "POST", "/v1/discovery/" + mode,
        "{\"table\":" + ServeTableJson("query_t", 30, 3) + ",\"k\":3}"));
    ASSERT_EQ(served.status, 200) << served.body;
    std::vector<DiscoveryResult> expected =
        mode == "joinable" ? direct.FindJoinable(query, 3)
                           : direct.FindUnionable(query, 3);
    EXPECT_EQ(served.body,
              RenderDiscoveryResults("query_t", mode, 3, expected))
        << "mode=" << mode;
  }
}

TEST(ServeService, ExplainFlagReportsStagesWithoutChangingResults) {
  // Opt-in per-stage accounting: the "explain" object reports which
  // CandidateIndex served the query and the per-stage candidate counts,
  // and the rendered "results" bytes are identical with or without it.
  DiscoveryService service;
  DiscoveryEngine direct;
  for (size_t i = 0; i < 4; ++i) {
    Table t = MakeServeTable("table_" + std::to_string(i), 30, i + 2);
    ASSERT_TRUE(service.RegisterTable(t).ok());
    ASSERT_TRUE(direct.AddTable(std::move(t)).ok());
  }
  Table query = MakeServeTable("query_t", 30, 3);

  for (const std::string mode : {"joinable", "unionable"}) {
    const std::string body =
        "{\"table\":" + ServeTableJson("query_t", 30, 3) + ",\"k\":3";
    HttpResponse plain = service.Handle(
        MakeRequest("POST", "/v1/discovery/" + mode, body + "}"));
    HttpResponse explained = service.Handle(MakeRequest(
        "POST", "/v1/discovery/" + mode, body + ",\"explain\":true}"));
    ASSERT_EQ(plain.status, 200) << plain.body;
    ASSERT_EQ(explained.status, 200) << explained.body;

    // Byte-for-byte: the explained response is exactly the direct
    // engine's results + explain rendered through the shared codec.
    DiscoveryExplain expected_explain;
    Result<std::vector<DiscoveryResult>> expected =
        mode == "joinable"
            ? direct.FindJoinable(query, 3, MatchContext(), &expected_explain)
            : direct.FindUnionable(query, 3, MatchContext(),
                                   &expected_explain);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(plain.body, RenderDiscoveryResults("query_t", mode, 3,
                                                 expected.ValueOrDie()))
        << "mode=" << mode;
    EXPECT_EQ(explained.body,
              RenderDiscoveryResults("query_t", mode, 3,
                                     expected.ValueOrDie(),
                                     &expected_explain))
        << "mode=" << mode;

    // Sanity on the reported stages: the default front-end is LSH, the
    // repository had 4 tables, and everything enriched got reranked.
    EXPECT_EQ(expected_explain.index, "lsh") << "mode=" << mode;
    EXPECT_FALSE(expected_explain.fallback) << "mode=" << mode;
    EXPECT_EQ(expected_explain.repository_tables, 4u) << "mode=" << mode;
    EXPECT_EQ(expected_explain.enriched, expected_explain.reranked)
        << "mode=" << mode;
    EXPECT_NE(explained.body.find("\"explain\":{\"enriched\":"),
              std::string::npos)
        << explained.body;
    EXPECT_EQ(plain.body.find("\"explain\""), std::string::npos)
        << plain.body;
  }
}

TEST(ServeService, ExplainFlagMustBeBoolean) {
  DiscoveryService service;
  ASSERT_TRUE(service.RegisterTable(MakeServeTable("repo", 20, 3)).ok());
  HttpResponse r = service.Handle(MakeRequest(
      "POST", "/v1/discovery/joinable",
      "{\"table\":" + ServeTableJson("q", 20, 3) + ",\"explain\":1}"));
  EXPECT_EQ(r.status, 400) << r.body;
  EXPECT_NE(r.body.find("'explain' must be a boolean"), std::string::npos)
      << r.body;
}

// Regression (serving boundary): a request whose budget is already
// spent must deterministically answer 504 kDeadlineExceeded having done
// zero scoring — not race the clock into an occasional 200.
TEST(ServeService, ZeroAndNegativeBudgetsAnswer504) {
  DiscoveryService service;
  ASSERT_TRUE(service.RegisterTable(MakeServeTable("repo", 20, 3)).ok());
  for (const char* budget : {"0", "-1", "-1e300"}) {
    HttpResponse r = service.Handle(MakeRequest(
        "POST", "/v1/discovery/unionable",
        "{\"table\":" + ServeTableJson("q", 20, 5) +
            ",\"budget_ms\":" + budget + "}"));
    EXPECT_EQ(r.status, 504) << "budget_ms=" << budget << ": " << r.body;
    EXPECT_NE(r.body.find("\"DeadlineExceeded\""), std::string::npos)
        << r.body;
  }
  // A sane budget on the same repository serves fine.
  HttpResponse ok = service.Handle(MakeRequest(
      "POST", "/v1/discovery/unionable",
      "{\"table\":" + ServeTableJson("q", 20, 5) +
          ",\"budget_ms\":30000}"));
  EXPECT_EQ(ok.status, 200) << ok.body;
}

TEST(ServeService, DiscoveryRequestValidation) {
  DiscoveryService service;
  const std::string table = ServeTableJson("q", 5, 3);
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/discovery/joinable",
                                    "{\"k\":3}"))
                .status,
            400);  // missing table
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/discovery/joinable",
                                    "{\"table\":" + table +
                                        ",\"k\":0}"))
                .status,
            400);  // k < 1
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/discovery/joinable",
                                    "{\"table\":" + table +
                                        ",\"k\":\"three\"}"))
                .status,
            400);  // k not a number
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/discovery/joinable",
                                    "{\"table\":" + table +
                                        ",\"budget_ms\":\"fast\"}"))
                .status,
            400);  // budget not a number
}

TEST(ServeService, SnapshotSurvivesConcurrentMutation) {
  // A snapshot taken before a mutation keeps answering identically —
  // the COW contract in miniature (single-threaded version; the racing
  // version lives in serve_concurrency_test.cpp).
  DiscoveryService service;
  ASSERT_TRUE(service.RegisterTable(MakeServeTable("stable", 20, 3)).ok());
  std::shared_ptr<const DiscoveryEngine> before = service.Snapshot();
  Table query = MakeServeTable("q", 20, 5);
  std::vector<DiscoveryResult> results_before =
      before->FindUnionable(query, 5);
  ASSERT_TRUE(service.RegisterTable(MakeServeTable("newcomer", 20, 7)).ok());
  // The old snapshot is unaffected; a fresh one sees the new table.
  EXPECT_EQ(RenderDiscoveryResults("q", "unionable", 5,
                                   before->FindUnionable(query, 5)),
            RenderDiscoveryResults("q", "unionable", 5, results_before));
  EXPECT_EQ(service.Snapshot()->num_tables(), 2u);
  EXPECT_EQ(before->num_tables(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace valentine
