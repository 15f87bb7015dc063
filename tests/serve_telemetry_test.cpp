// Tests for the request-telemetry spine (serve/telemetry.h) and its
// service/transport integration: deterministic trace ids, the JSONL
// access log (golden lines, fake-clock byte-stability), the
// byte-identity contract (responses identical with telemetry on/off),
// the /metrics golden exposition under a fake clock, /statusz and
// /tracez schemas via the mini JSON parser, span parenting from
// serve.request down to discovery stages, the configurable Retry-After,
// and the route-labelled request-level shed counter.

#include "serve/telemetry.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "http_client.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve_test_util.h"

namespace valentine {
namespace serve {
namespace {

using testing::ServeTableJson;

HttpRequest MakeRequest(const std::string& method, const std::string& target,
                        const std::string& body = "",
                        const std::string& trace_header = "") {
  HttpRequest r;
  r.method = method;
  r.target = target;
  r.version = "HTTP/1.1";
  r.body = body;
  if (!trace_header.empty()) {
    r.headers.emplace_back("x-valentine-trace", trace_header);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Trace-id derivation.

TEST(ServeTelemetryTraceId, HeaderWinsElseSeededCounter) {
  ServeTelemetry::Options opt;
  opt.trace_seed = 10;
  ServeTelemetry telemetry(opt);
  EXPECT_EQ(telemetry.TraceIdFor("client-trace-7"), "client-trace-7");
  EXPECT_EQ(telemetry.TraceIdFor(""), "serve/10");
  EXPECT_EQ(telemetry.TraceIdFor(""), "serve/11");
  // A hostile oversized header is truncated, not copied wholesale.
  std::string huge(4096, 'x');
  EXPECT_EQ(telemetry.TraceIdFor(huge).size(), 128u);
}

// ---------------------------------------------------------------------------
// Access-log lines.

TEST(ServeTelemetryLog, GoldenLineFullyPopulated) {
  RequestLogEntry entry;
  entry.trace_id = "serve/1";
  entry.method = "POST";
  entry.route = "joinable";
  entry.path = "/v1/discovery/joinable";
  entry.status = 503;
  entry.bytes_in = 120;
  entry.bytes_out = 80;
  entry.queue_wait_ms = 0.25;
  entry.handler_ms = 3.5;
  entry.budget_ms = 100;
  entry.deadline_remaining_ms = 96.5;
  entry.error_code = "Cancelled";
  entry.start_ns = 1000000;
  entry.end_ns = 4500000;
  EXPECT_EQ(RenderAccessLogLine(entry),
            "{\"budget_ms\":100,\"bytes_in\":120,\"bytes_out\":80,"
            "\"deadline_remaining_ms\":96.5,\"end_ns\":4500000,"
            "\"error\":\"Cancelled\",\"handler_ms\":3.5,"
            "\"method\":\"POST\",\"path\":\"/v1/discovery/joinable\","
            "\"queue_wait_ms\":0.25,\"route\":\"joinable\","
            "\"start_ns\":1000000,\"status\":503,"
            "\"trace_id\":\"serve/1\"}");
}

TEST(ServeTelemetryLog, UnbudgetedLineOmitsRealClockFields) {
  // budget_ms / deadline_remaining_ms are the only fields derived from
  // the real steady clock; an unbudgeted request must not carry them,
  // so fake-clock runs serialize byte-stable lines.
  RequestLogEntry entry;
  entry.trace_id = "serve/1";
  entry.method = "GET";
  entry.route = "healthz";
  entry.path = "/healthz";
  entry.status = 200;
  std::string line = RenderAccessLogLine(entry);
  EXPECT_EQ(line.find("budget_ms"), std::string::npos);
  EXPECT_EQ(line.find("deadline_remaining_ms"), std::string::npos);
  EXPECT_EQ(line.find("error"), std::string::npos);
}

TEST(ServeTelemetryLog, TracezRingKeepsLastN) {
  ServeTelemetry::Options opt;
  opt.trace_buffer_capacity = 2;
  ServeTelemetry telemetry(opt);
  for (int i = 1; i <= 3; ++i) {
    RequestLogEntry entry;
    entry.trace_id = "serve/" + std::to_string(i);
    telemetry.RecordRequest(entry);
  }
  std::vector<RequestLogEntry> recent = telemetry.RecentRequests();
  ASSERT_EQ(recent.size(), 2u);  // oldest dropped
  EXPECT_EQ(recent[0].trace_id, "serve/2");
  EXPECT_EQ(recent[1].trace_id, "serve/3");
  EXPECT_EQ(telemetry.requests_logged(), 3u);
}

// ---------------------------------------------------------------------------
// Byte identity: telemetry attached vs not.

TEST(ServeTelemetryIdentity, ResponsesByteIdenticalWithTelemetryOnOff) {
  const std::vector<HttpRequest> sequence = {
      MakeRequest("GET", "/healthz"),
      MakeRequest("POST", "/v1/tables", ServeTableJson("orders", 30, 3)),
      MakeRequest("POST", "/v1/tables", ServeTableJson("billing", 30, 7)),
      MakeRequest("POST", "/v1/discovery/joinable",
                  "{\"table\":" + ServeTableJson("probe", 30, 3) + "}"),
      MakeRequest("POST", "/v1/discovery/unionable",
                  "{\"table\":" + ServeTableJson("probe", 30, 3) +
                      ",\"k\":3,\"explain\":true}"),
      MakeRequest("DELETE", "/v1/tables/billing"),
      MakeRequest("GET", "/no/such/route"),
      MakeRequest("PUT", "/healthz"),
  };

  DiscoveryService bare;

  FakeClock clock(0, 1000000);
  MetricsRegistry metrics;
  Tracer tracer(&clock);
  ServeTelemetry::Options topt;
  topt.metrics = &metrics;
  topt.tracer = &tracer;
  topt.clock = &clock;
  topt.keep_access_log_in_memory = true;
  ServeTelemetry telemetry(topt);
  ServiceOptions sopt;
  sopt.metrics = &metrics;
  sopt.tracer = &tracer;
  sopt.telemetry = &telemetry;
  DiscoveryService instrumented(sopt);

  for (const HttpRequest& request : sequence) {
    HttpResponse plain = bare.Handle(request);
    HttpResponse traced =
        HandleWithTelemetry(&instrumented, &telemetry, request, nullptr);
    EXPECT_EQ(plain.status, traced.status) << request.target;
    EXPECT_EQ(plain.body, traced.body) << request.target;
    EXPECT_EQ(plain.content_type, traced.content_type) << request.target;
  }
  // ...and the side channels did fire: every request logged + traced.
  EXPECT_EQ(telemetry.requests_logged(), sequence.size());
  EXPECT_GT(tracer.size(), sequence.size());  // request + discovery spans
}

TEST(ServeTelemetryIdentity, FakeClockAccessLogIsByteStable) {
  // Two runs of the same unbudgeted request sequence through fresh
  // service+telemetry stacks under the same FakeClock settings must
  // serialize the exact same access-log bytes.
  auto run_once = [] {
    FakeClock clock(0, 1000000);  // 1ms per read
    Tracer tracer(&clock);
    ServeTelemetry::Options topt;
    topt.tracer = &tracer;
    topt.clock = &clock;
    topt.keep_access_log_in_memory = true;
    ServeTelemetry telemetry(topt);
    ServiceOptions sopt;
    sopt.telemetry = &telemetry;
    DiscoveryService service(sopt);

    const std::vector<HttpRequest> sequence = {
        MakeRequest("GET", "/healthz"),
        MakeRequest("POST", "/v1/tables", ServeTableJson("orders", 25, 3)),
        MakeRequest("POST", "/v1/discovery/joinable",
                    "{\"table\":" + ServeTableJson("probe", 25, 3) + "}",
                    "client/trace-a"),
        MakeRequest("POST", "/v1/discovery/unionable",
                    "{\"table\":" + ServeTableJson("probe", 25, 3) + "}"),
        MakeRequest("GET", "/nowhere"),
    };
    for (const HttpRequest& request : sequence) {
      HandleWithTelemetry(&service, &telemetry, request, nullptr);
    }
    return telemetry.AccessLogText();
  };
  std::string first = run_once();
  std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Derived ids are the seeded counter; the header-provided id rides
  // through verbatim.
  EXPECT_NE(first.find("\"trace_id\":\"serve/1\""), std::string::npos);
  EXPECT_NE(first.find("\"trace_id\":\"client/trace-a\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// /metrics golden under fake clock.

TEST(ServeTelemetryMetrics, GoldenPrometheusRenderingUnderFakeClock) {
  FakeClock clock(0, 1000000);  // every read advances 1ms
  MetricsRegistry metrics;
  ServeTelemetry::Options topt;
  topt.metrics = &metrics;
  topt.clock = &clock;
  ServeTelemetry telemetry(topt);
  ServiceOptions sopt;
  sopt.metrics = &metrics;
  sopt.telemetry = &telemetry;
  DiscoveryService service(sopt);

  // Reads: ctor(0ms) → handler start(1ms) → handler end(2ms), so
  // handler_ms is exactly 1.0 and every histogram value is pinned.
  HttpResponse health =
      HandleWithTelemetry(&service, &telemetry, MakeRequest("GET", "/healthz"),
                          nullptr);
  ASSERT_EQ(health.status, 200);
  ASSERT_EQ(health.body.size(), 26u);  // bytes_out below depends on this

  EXPECT_EQ(
      metrics.RenderPrometheusText(),
      "# TYPE valentine_serve_queue_wait_ms histogram\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"0.1\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"0.5\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"1\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"5\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"10\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"50\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"100\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"500\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"1000\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"5000\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"10000\"} 1\n"
      "valentine_serve_queue_wait_ms_bucket{le=\"+Inf\"} 1\n"
      "valentine_serve_queue_wait_ms_sum 0\n"
      "valentine_serve_queue_wait_ms_count 1\n"
      "# TYPE valentine_serve_request_latency_ms histogram\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"0.1\"} 0\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"0.5\"} 0\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"1\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"5\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"10\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"50\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"100\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"500\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"1000\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"5000\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"10000\"} 1\n"
      "valentine_serve_request_latency_ms_bucket{route=\"healthz\",le=\"+Inf\"} 1\n"
      "valentine_serve_request_latency_ms_sum{route=\"healthz\"} 1\n"
      "valentine_serve_request_latency_ms_count{route=\"healthz\"} 1\n"
      "# TYPE valentine_serve_requests_total counter\n"
      "valentine_serve_requests_total{code=\"200\",route=\"healthz\"} 1\n"
      "# TYPE valentine_serve_response_bytes histogram\n"
      "valentine_serve_response_bytes_bucket{route=\"healthz\",le=\"256\"} 1\n"
      "valentine_serve_response_bytes_bucket{route=\"healthz\",le=\"1024\"} 1\n"
      "valentine_serve_response_bytes_bucket{route=\"healthz\",le=\"4096\"} 1\n"
      "valentine_serve_response_bytes_bucket{route=\"healthz\",le=\"16384\"} 1\n"
      "valentine_serve_response_bytes_bucket{route=\"healthz\",le=\"65536\"} 1\n"
      "valentine_serve_response_bytes_bucket{route=\"healthz\",le=\"262144\"} 1\n"
      "valentine_serve_response_bytes_bucket{route=\"healthz\",le=\"1048576\"} 1\n"
      "valentine_serve_response_bytes_bucket{route=\"healthz\",le=\"+Inf\"} 1\n"
      "valentine_serve_response_bytes_sum{route=\"healthz\"} 26\n"
      "valentine_serve_response_bytes_count{route=\"healthz\"} 1\n");
}

// ---------------------------------------------------------------------------
// /statusz and /tracez schemas (via the test-only mini JSON parser).

TEST(ServeTelemetryEndpoints, StatuszSchema) {
  FakeClock clock(0, 1000000);
  MetricsRegistry metrics;
  ServeTelemetry::Options topt;
  topt.metrics = &metrics;
  topt.clock = &clock;
  ServeTelemetry telemetry(topt);
  ServeTelemetry::ServerState state;
  state.running = true;
  state.workers = 4;
  state.queue_capacity = 64;
  telemetry.PublishServerState(state);
  ServiceOptions sopt;
  sopt.metrics = &metrics;
  sopt.telemetry = &telemetry;
  DiscoveryService service(sopt);

  HandleWithTelemetry(&service, &telemetry, MakeRequest("GET", "/healthz"),
                      nullptr);
  HttpResponse statusz = service.Handle(MakeRequest("GET", "/statusz"));
  ASSERT_EQ(statusz.status, 200);

  Result<JsonValue> parsed = ParseJson(statusz.body);
  ASSERT_TRUE(parsed.ok()) << statusz.body;
  const JsonValue& doc = parsed.ValueOrDie();
  ASSERT_TRUE(doc.is_object());

  const JsonValue* build = doc.Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->Find("name")->string_value(), "valentine-serve");
  EXPECT_TRUE(build->Find("version")->is_string());

  EXPECT_TRUE(doc.Find("tables")->is_number());
  EXPECT_TRUE(doc.Find("uptime_ms")->is_number());
  EXPECT_EQ(doc.Find("requests_logged")->number_value(), 1.0);

  const JsonValue* server = doc.Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->Find("running")->bool_value());
  EXPECT_FALSE(server->Find("draining")->bool_value());
  EXPECT_EQ(server->Find("workers")->number_value(), 4.0);
  EXPECT_EQ(server->Find("queue_capacity")->number_value(), 64.0);

  const JsonValue* admission = doc.Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_TRUE(admission->Find("queue_depth")->is_number());
  EXPECT_TRUE(admission->Find("connections_total")->is_number());
  EXPECT_TRUE(admission->Find("shed_total")->is_number());

  // Per-route counters: healthz got one 200, and the /statusz request
  // itself is counted before rendering.
  const JsonValue* routes = doc.Find("routes");
  ASSERT_NE(routes, nullptr);
  ASSERT_NE(routes->Find("healthz"), nullptr);
  EXPECT_EQ(routes->Find("healthz")->Find("200")->number_value(), 1.0);
  ASSERT_NE(routes->Find("statusz"), nullptr);
  EXPECT_EQ(routes->Find("statusz")->Find("200")->number_value(), 1.0);
}

TEST(ServeTelemetryEndpoints, TracezSchemaAndCapacity) {
  FakeClock clock(0, 1000000);
  ServeTelemetry::Options topt;
  topt.clock = &clock;
  topt.trace_buffer_capacity = 2;
  ServeTelemetry telemetry(topt);
  ServiceOptions sopt;
  sopt.telemetry = &telemetry;
  DiscoveryService service(sopt);

  for (int i = 0; i < 3; ++i) {
    HandleWithTelemetry(&service, &telemetry, MakeRequest("GET", "/healthz"),
                        nullptr);
  }
  HttpResponse tracez = service.Handle(MakeRequest("GET", "/tracez"));
  ASSERT_EQ(tracez.status, 200);

  Result<JsonValue> parsed = ParseJson(tracez.body);
  ASSERT_TRUE(parsed.ok()) << tracez.body;
  const JsonValue& doc = parsed.ValueOrDie();
  EXPECT_EQ(doc.Find("capacity")->number_value(), 2.0);
  const JsonValue* requests = doc.Find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_TRUE(requests->is_array());
  ASSERT_EQ(requests->array_items().size(), 2u);  // ring, not history
  for (const JsonValue& entry : requests->array_items()) {
    ASSERT_TRUE(entry.is_object());
    EXPECT_TRUE(entry.Find("trace_id")->is_string());
    EXPECT_EQ(entry.Find("route")->string_value(), "healthz");
    EXPECT_EQ(entry.Find("status")->number_value(), 200.0);
    EXPECT_TRUE(entry.Find("handler_ms")->is_number());
    EXPECT_TRUE(entry.Find("start_ns")->is_number());
  }
  // Oldest dropped: the ring holds requests 2 and 3.
  EXPECT_EQ(requests->array_items()[0].Find("trace_id")->string_value(),
            "serve/2");
  EXPECT_EQ(requests->array_items()[1].Find("trace_id")->string_value(),
            "serve/3");
}

// ---------------------------------------------------------------------------
// Span parenting: serve.request → discovery query → stages.

TEST(ServeTelemetrySpans, RequestSpanParentsDiscoveryStages) {
  FakeClock clock(0, 1000000);
  Tracer tracer(&clock);
  ServeTelemetry::Options topt;
  topt.tracer = &tracer;
  topt.clock = &clock;
  ServeTelemetry telemetry(topt);
  ServiceOptions sopt;
  sopt.tracer = &tracer;
  sopt.telemetry = &telemetry;
  DiscoveryService service(sopt);

  ASSERT_EQ(HandleWithTelemetry(
                &service, &telemetry,
                MakeRequest("POST", "/v1/tables",
                            ServeTableJson("orders", 25, 3)),
                nullptr)
                .status,
            200);
  ASSERT_EQ(HandleWithTelemetry(
                &service, &telemetry,
                MakeRequest("POST", "/v1/discovery/joinable",
                            "{\"table\":" + ServeTableJson("probe", 25, 3) +
                                "}",
                            "trace/abc"),
                nullptr)
                .status,
            200);

  uint64_t request_span = 0;
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (span.kind == "request" && span.trace_id == "trace/abc") {
      request_span = span.span_id;
      EXPECT_EQ(span.parent_id, 0u);  // per-request trace root
    }
  }
  ASSERT_NE(request_span, 0u);

  uint64_t query_span = 0;
  size_t stage_spans = 0;
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (span.trace_id != "trace/abc") continue;
    if (span.kind == "query") {
      query_span = span.span_id;
      EXPECT_EQ(span.parent_id, request_span);
    }
    if (span.kind == "stage") ++stage_spans;
  }
  EXPECT_NE(query_span, 0u) << "discovery query span not joined to the "
                               "request trace";
  EXPECT_GE(stage_spans, 3u);  // retrieve / enrich / rerank
}

// ---------------------------------------------------------------------------
// Configurable Retry-After + route-labelled request-level sheds.

TEST(ServeTelemetryShed, RetryAfterConfigurableAndShedLabelledByRoute) {
  MetricsRegistry metrics;
  ServiceOptions sopt;
  sopt.metrics = &metrics;
  sopt.retry_after_s = 7;
  DiscoveryService service(sopt);
  ASSERT_EQ(service
                .Handle(MakeRequest("POST", "/v1/tables",
                                    ServeTableJson("orders", 25, 3)))
                .status,
            200);

  CancellationToken cancelled;
  cancelled.Cancel();
  HttpResponse shed = service.Handle(
      MakeRequest("POST", "/v1/discovery/joinable",
                  "{\"table\":" + ServeTableJson("probe", 25, 3) + "}"),
      &cancelled);
  EXPECT_EQ(shed.status, 503);
  std::string retry_after;
  for (const auto& [name, value] : shed.headers) {
    if (name == "Retry-After") retry_after = value;
  }
  EXPECT_EQ(retry_after, "7");
  EXPECT_EQ(metrics.CounterValue("valentine_serve_shed_total",
                                 {{"reason", "Cancelled"},
                                  {"route", "joinable"}}),
            1u);
  // The unlabelled transport-shed series is untouched by request-level
  // sheds.
  EXPECT_EQ(metrics.CounterValue("valentine_serve_shed_total"), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end over the wire: HttpServer feeds the same spine.

TEST(ServeTelemetryServer, WireRequestsLandInAccessLogAndStatusz) {
  MetricsRegistry metrics;
  ServeTelemetry::Options topt;
  topt.metrics = &metrics;
  topt.keep_access_log_in_memory = true;
  ServeTelemetry telemetry(topt);

  ServiceOptions sopt;
  sopt.metrics = &metrics;
  sopt.telemetry = &telemetry;
  DiscoveryService service(sopt);

  ServerOptions server_opt;
  server_opt.workers = 2;
  server_opt.metrics = &metrics;
  server_opt.telemetry = &telemetry;
  HttpServer server(&service, server_opt);
  ASSERT_TRUE(server.Start().ok());

  Result<testing::HttpClientResponse> health =
      testing::HttpFetch("127.0.0.1", server.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.ValueOrDie().status, 200);

  Result<testing::HttpClientResponse> statusz =
      testing::HttpFetch("127.0.0.1", server.port(), "GET", "/statusz");
  ASSERT_TRUE(statusz.ok());
  ASSERT_EQ(statusz.ValueOrDie().status, 200);
  server.Shutdown();

  // Both requests went through the telemetry spine with transport-truth
  // byte counts.
  EXPECT_EQ(telemetry.requests_logged(), 2u);
  std::vector<RequestLogEntry> recent = telemetry.RecentRequests();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].route, "healthz");
  EXPECT_GT(recent[0].bytes_in, 0u);    // raw wire bytes, headers included
  EXPECT_GT(recent[0].bytes_out, 26u);  // serialized wire > healthz body
  EXPECT_GE(recent[0].queue_wait_ms, 0.0);

  // /statusz (served mid-flight) saw the server running with the
  // configured shape.
  Result<JsonValue> doc = ParseJson(statusz.ValueOrDie().body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* state = doc->Find("server");
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->Find("running")->bool_value());
  EXPECT_EQ(state->Find("workers")->number_value(), 2.0);
}

}  // namespace
}  // namespace serve
}  // namespace valentine
