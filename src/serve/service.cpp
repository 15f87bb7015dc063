#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

namespace valentine {
namespace serve {

namespace {

/// Inverse of DataTypeName; nullopt for unknown names.
std::optional<DataType> DataTypeFromJsonName(const std::string& name) {
  static const std::pair<const char*, DataType> kNames[] = {
      {"null", DataType::kNull},       {"bool", DataType::kBool},
      {"int64", DataType::kInt64},     {"float64", DataType::kFloat64},
      {"string", DataType::kString},   {"date", DataType::kDate},
  };
  for (const auto& [n, t] : kNames) {
    if (name == n) return t;
  }
  return std::nullopt;
}

Result<Value> CellFromJson(const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      return Value::Null();
    case JsonValue::Type::kBool:
      return Value::Bool(v.bool_value());
    case JsonValue::Type::kNumber: {
      double d = v.number_value();
      // Integral doubles inside the exactly-representable range decode
      // as int64 so 1 round-trips as 1, not 1.0.
      if (std::fabs(d) <= 9.0e15 && d == std::floor(d)) {
        return Value::Int(static_cast<int64_t>(d));
      }
      return Value::Float(d);
    }
    case JsonValue::Type::kString:
      return Value::String(v.string_value());
    case JsonValue::Type::kArray:
    case JsonValue::Type::kObject:
      break;
  }
  return Status::InvalidArgument("column values must be JSON scalars");
}

DataType InferDeclaredType(const Column& column) {
  for (const Value& v : column.values()) {
    if (!v.is_null()) return v.kind();
  }
  return DataType::kString;
}

HttpResponse JsonResponse(int status, const JsonValue& body) {
  HttpResponse response;
  response.status = status;
  response.body = WriteJson(body);
  return response;
}

/// Decodes the %XX escapes of one path segment (RFC 3986 §2.1; '+' is
/// literal). kInvalidArgument when a '%' is not followed by two hex
/// digits.
Result<std::string> PercentDecode(const std::string& encoded) {
  auto hex_value = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] != '%') {
      out += encoded[i];
      continue;
    }
    const int hi = i + 1 < encoded.size() ? hex_value(encoded[i + 1]) : -1;
    const int lo = i + 2 < encoded.size() ? hex_value(encoded[i + 2]) : -1;
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("malformed percent-escape at offset " +
                                     std::to_string(i) + " of '" + encoded +
                                     "'");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

HttpResponse MethodNotAllowed(const std::string& method,
                              const std::string& path) {
  HttpResponse response;
  response.status = 405;
  response.body = JsonErrorEnvelope(
      Status::InvalidArgument("method " + method + " not allowed for " + path),
      405);
  return response;
}

}  // namespace

Result<Table> TableFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("table must be a JSON object");
  }
  const JsonValue* name = value.Find("name");
  if (name == nullptr || !name->is_string() || name->string_value().empty()) {
    return Status::InvalidArgument("table requires a non-empty string 'name'");
  }
  const JsonValue* columns = value.Find("columns");
  if (columns == nullptr || !columns->is_array()) {
    return Status::InvalidArgument("table requires a 'columns' array");
  }
  Table table(name->string_value());
  for (const JsonValue& col : columns->array_items()) {
    if (!col.is_object()) {
      return Status::InvalidArgument("each column must be a JSON object");
    }
    const JsonValue* col_name = col.Find("name");
    if (col_name == nullptr || !col_name->is_string() ||
        col_name->string_value().empty()) {
      return Status::InvalidArgument(
          "each column requires a non-empty string 'name'");
    }
    const JsonValue* values = col.Find("values");
    if (values == nullptr || !values->is_array()) {
      return Status::InvalidArgument("column '" + col_name->string_value() +
                                     "' requires a 'values' array");
    }
    Column column(col_name->string_value(), DataType::kNull);
    column.Reserve(values->array_items().size());
    for (const JsonValue& cell : values->array_items()) {
      Result<Value> decoded = CellFromJson(cell);
      if (!decoded.ok()) {
        return Status::InvalidArgument("column '" + col_name->string_value() +
                                       "': " + decoded.status().message());
      }
      column.Append(std::move(decoded).ValueOrDie());
    }
    const JsonValue* type = col.Find("type");
    if (type != nullptr) {
      if (!type->is_string()) {
        return Status::InvalidArgument("column 'type' must be a string");
      }
      std::optional<DataType> declared =
          DataTypeFromJsonName(type->string_value());
      if (!declared.has_value()) {
        return Status::InvalidArgument("unknown column type '" +
                                       type->string_value() + "'");
      }
      column.set_type(*declared);
    } else {
      column.set_type(InferDeclaredType(column));
    }
    VALENTINE_RETURN_NOT_OK(table.AddColumn(std::move(column)));
  }
  return table;
}

std::string RenderDiscoveryResults(
    const std::string& query_table, const std::string& mode, size_t k,
    const std::vector<DiscoveryResult>& results,
    const DiscoveryExplain* explain) {
  JsonValue root = JsonValue::Object();
  root.Set("query", JsonValue::String(query_table));
  root.Set("mode", JsonValue::String(mode));
  root.Set("k", JsonValue::Number(static_cast<double>(k)));
  if (explain != nullptr) {
    JsonValue e = JsonValue::Object();
    e.Set("index", JsonValue::String(explain->index));
    e.Set("fallback", JsonValue::Bool(explain->fallback));
    if (explain->fallback) {
      e.Set("fallback_reason", JsonValue::String(explain->fallback_reason));
    }
    e.Set("repository_tables",
          JsonValue::Number(static_cast<double>(explain->repository_tables)));
    e.Set("retrieved",
          JsonValue::Number(static_cast<double>(explain->retrieved)));
    e.Set("enriched",
          JsonValue::Number(static_cast<double>(explain->enriched)));
    e.Set("profiles_attached",
          JsonValue::Number(static_cast<double>(explain->profiles_attached)));
    e.Set("reranked",
          JsonValue::Number(static_cast<double>(explain->reranked)));
    e.Set("survivors",
          JsonValue::Number(static_cast<double>(explain->survivors)));
    root.Set("explain", std::move(e));
  }
  JsonValue items = JsonValue::Array();
  for (const DiscoveryResult& r : results) {
    JsonValue item = JsonValue::Object();
    item.Set("table", JsonValue::String(r.table_name));
    item.Set("score", JsonValue::Number(r.score));
    JsonValue evidence = JsonValue::Array();
    for (const Match& m : r.evidence) {
      JsonValue e = JsonValue::Object();
      e.Set("source", JsonValue::String(m.source.ToString()));
      e.Set("target", JsonValue::String(m.target.ToString()));
      e.Set("score", JsonValue::Number(m.score));
      evidence.Append(std::move(e));
    }
    item.Set("evidence", std::move(evidence));
    items.Append(std::move(item));
  }
  root.Set("results", std::move(items));
  return WriteJson(root);
}

DiscoveryService::DiscoveryService(ServiceOptions options)
    : options_(std::move(options)) {
  MutexLock lock(&mu_);
  RepositoryOptions repo;
  repo.store = options_.store;
  repo.metrics = options_.metrics;
  // An empty repository cannot fail to build.
  engine_ = DiscoveryEngine::FromRepository(EngineOptions(),
                                            TableRepository(repo))
                .ValueOrDie();
}

DiscoveryOptions DiscoveryService::EngineOptions() const {
  DiscoveryOptions opt;
  if (options_.matcher_factory) opt.matcher = options_.matcher_factory();
  opt.min_containment = options_.min_containment;
  opt.union_evidence_columns = options_.union_evidence_columns;
  opt.store = options_.store;
  opt.clock = options_.clock;
  opt.tracer = options_.tracer;
  opt.metrics = options_.metrics;
  return opt;
}

Status DiscoveryService::Publish(
    TableRepository next, LshCandidateIndex index,
    std::shared_ptr<const DiscoveryEngine>* replaced) {
  const uint64_t banded =
      index.banded_entries() - engine_->lsh_index().banded_entries();
  Result<std::unique_ptr<DiscoveryEngine>> built =
      DiscoveryEngine::FromRepository(EngineOptions(), std::move(next),
                                      std::move(index));
  VALENTINE_RETURN_NOT_OK(built.status());
  *replaced = std::move(engine_);
  engine_ = std::move(built).ValueOrDie();
  if (options_.metrics != nullptr) {
    options_.metrics->GaugeFor("valentine_serve_tables")
        ->Set(static_cast<double>(engine_->num_tables()));
    options_.metrics->CounterFor("valentine_discovery_index_banded_total")
        ->Increment(banded);
  }
  return Status::OK();
}

Status DiscoveryService::RegisterTable(Table table) {
  // Declared before the lock, so destroyed after it is released: the
  // replaced snapshot (and any segment only it held) is freed without
  // stalling the Snapshot() every read takes.
  std::shared_ptr<const DiscoveryEngine> replaced;
  MutexLock lock(&mu_);
  // Validate-then-commit: register into a snapshot and build the
  // replacement engine first, so a rejected table (e.g. zero columns)
  // leaves the registry untouched. The snapshot shares every existing
  // entry and the index copy every segment — only the new table
  // pays fingerprinting, sketching (or a store lookup) and banding.
  TableRepository next = engine_->repository();
  Result<std::shared_ptr<const RegisteredTable>> added =
      next.AddTable(std::move(table));
  VALENTINE_RETURN_NOT_OK(added.status());
  LshCandidateIndex index = engine_->lsh_index();
  VALENTINE_RETURN_NOT_OK(index.Add(**added));
  return Publish(std::move(next), std::move(index), &replaced);
}

Status DiscoveryService::UnregisterTable(const std::string& name) {
  std::shared_ptr<const DiscoveryEngine> replaced;  // freed after unlock
  MutexLock lock(&mu_);
  std::shared_ptr<const RegisteredTable> entry =
      engine_->repository().Find(name);
  if (entry == nullptr) {
    return Status::NotFound("no table named '" + name + "'");
  }
  TableRepository next = engine_->repository();
  VALENTINE_RETURN_NOT_OK(next.RemoveTable(name));
  LshCandidateIndex index = engine_->lsh_index();
  VALENTINE_RETURN_NOT_OK(index.Remove(*entry));
  return Publish(std::move(next), std::move(index), &replaced);
}

std::shared_ptr<const DiscoveryEngine> DiscoveryService::Snapshot() const {
  MutexLock lock(&mu_);
  return engine_;
}

size_t DiscoveryService::num_tables() const {
  MutexLock lock(&mu_);
  return engine_->num_tables();
}

void DiscoveryService::CountRequest(const std::string& route,
                                    int http_status) {
  if (options_.metrics == nullptr) return;
  options_.metrics
      ->CounterFor("valentine_serve_requests_total",
                   {{"code", std::to_string(http_status)}, {"route", route}})
      ->Increment();
}

HttpResponse DiscoveryService::Handle(const HttpRequest& request,
                                      const CancellationToken* cancel,
                                      RequestObs* obs) {
  const std::string path = request.Path();
  // The route label is reported through `obs` even for rejected
  // methods, so the access log attributes every request to the route it
  // aimed at rather than a catch-all.
  auto route_is = [obs](const char* route) {
    if (obs != nullptr) obs->route = route;
  };
  if (path == "/healthz") {
    route_is("healthz");
    if (request.method != "GET") return MethodNotAllowed(request.method, path);
    HttpResponse r = HandleHealth();
    CountRequest("healthz", r.status);
    return r;
  }
  if (path == "/metrics") {
    route_is("metrics");
    if (request.method != "GET") return MethodNotAllowed(request.method, path);
    // Counted BEFORE rendering so the exposition includes this request —
    // scrapes see a self-consistent requests_total.
    CountRequest("metrics", 200);
    return HandleMetrics();
  }
  if (path == "/statusz") {
    route_is("statusz");
    if (request.method != "GET") return MethodNotAllowed(request.method, path);
    // Counted first for the same reason as /metrics: the rendered
    // per-route table includes this very request.
    CountRequest("statusz", 200);
    return HandleStatusz();
  }
  if (path == "/tracez") {
    route_is("tracez");
    if (request.method != "GET") return MethodNotAllowed(request.method, path);
    HttpResponse r = HandleTracez();
    CountRequest("tracez", r.status);
    return r;
  }
  if (path == "/v1/tables") {
    route_is("register");
    if (request.method != "POST") return MethodNotAllowed(request.method, path);
    HttpResponse r = HandleRegister(request);
    CountRequest("register", r.status);
    return r;
  }
  const std::string kTablePrefix = "/v1/tables/";
  if (path.compare(0, kTablePrefix.size(), kTablePrefix) == 0) {
    route_is("unregister");
    if (request.method != "DELETE") {
      return MethodNotAllowed(request.method, path);
    }
    HttpResponse r = HandleUnregister(path.substr(kTablePrefix.size()));
    CountRequest("unregister", r.status);
    return r;
  }
  if (path == "/v1/discovery/joinable" || path == "/v1/discovery/unionable") {
    const std::string mode =
        path == "/v1/discovery/joinable" ? "joinable" : "unionable";
    route_is(mode.c_str());
    if (request.method != "POST") return MethodNotAllowed(request.method, path);
    HttpResponse r = HandleDiscovery(request, mode, cancel, obs);
    CountRequest(mode, r.status);
    return r;
  }
  route_is("unknown");
  HttpResponse r = ErrorResponse(Status::NotFound("no route for " + path));
  CountRequest("unknown", r.status);
  return r;
}

HttpResponse DiscoveryService::HandleHealth() {
  JsonValue body = JsonValue::Object();
  body.Set("status", JsonValue::String("ok"));
  body.Set("tables", JsonValue::Number(static_cast<double>(num_tables())));
  return JsonResponse(200, body);
}

HttpResponse DiscoveryService::HandleMetrics() {
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4";
  if (options_.metrics != nullptr) {
    response.body = options_.metrics->RenderPrometheusText();
  }
  return response;
}

HttpResponse DiscoveryService::HandleStatusz() {
  JsonValue body = JsonValue::Object();
  JsonValue build = JsonValue::Object();
  build.Set("name", JsonValue::String(kServeBuildName));
  build.Set("version", JsonValue::String(kServeBuildVersion));
  body.Set("build", std::move(build));
  body.Set("tables", JsonValue::Number(static_cast<double>(num_tables())));
  if (options_.telemetry != nullptr) {
    body.Set("uptime_ms", JsonValue::Number(options_.telemetry->UptimeMs()));
    body.Set("requests_logged",
             JsonValue::Number(static_cast<double>(
                 options_.telemetry->requests_logged())));
    ServeTelemetry::ServerState state = options_.telemetry->server_state();
    JsonValue server = JsonValue::Object();
    server.Set("running", JsonValue::Bool(state.running));
    server.Set("draining", JsonValue::Bool(state.draining));
    server.Set("workers",
               JsonValue::Number(static_cast<double>(state.workers)));
    server.Set("queue_capacity",
               JsonValue::Number(static_cast<double>(state.queue_capacity)));
    body.Set("server", std::move(server));
  }
  if (options_.metrics != nullptr) {
    JsonValue admission = JsonValue::Object();
    admission.Set("queue_depth",
                  JsonValue::Number(options_.metrics
                                        ->GaugeFor("valentine_serve_queue_depth")
                                        ->value()));
    admission.Set(
        "connections_total",
        JsonValue::Number(static_cast<double>(options_.metrics->CounterValue(
            "valentine_serve_connections_total"))));
    admission.Set(
        "shed_total",
        JsonValue::Number(static_cast<double>(
            options_.metrics->CounterValue("valentine_serve_shed_total"))));
    body.Set("admission", std::move(admission));
    // Per-route status-code counts, folded from the labelled
    // requests_total series. CounterSamples is sorted by (name, label
    // string), so the nested objects come out deterministic.
    JsonValue routes = JsonValue::Object();
    for (const MetricsRegistry::CounterSample& sample :
         options_.metrics->CounterSamples()) {
      if (sample.name != "valentine_serve_requests_total") continue;
      std::string code, route;
      for (const auto& [key, value] : sample.labels) {
        if (key == "code") code = value;
        if (key == "route") route = value;
      }
      if (route.empty()) continue;
      const JsonValue* existing = routes.Find(route);
      JsonValue per_route =
          existing != nullptr ? *existing : JsonValue::Object();
      per_route.Set(code.empty() ? "unknown" : code,
                    JsonValue::Number(static_cast<double>(sample.value)));
      routes.Set(route, std::move(per_route));
    }
    body.Set("routes", std::move(routes));
  }
  return JsonResponse(200, body);
}

HttpResponse DiscoveryService::HandleTracez() {
  JsonValue body = JsonValue::Object();
  size_t capacity = options_.telemetry != nullptr
                        ? options_.telemetry->trace_buffer_capacity()
                        : 0;
  body.Set("capacity", JsonValue::Number(static_cast<double>(capacity)));
  JsonValue requests = JsonValue::Array();
  if (options_.telemetry != nullptr) {
    for (const RequestLogEntry& entry :
         options_.telemetry->RecentRequests()) {
      requests.Append(RequestLogEntryJson(entry));
    }
  }
  body.Set("requests", std::move(requests));
  return JsonResponse(200, body);
}

HttpResponse DiscoveryService::HandleRegister(const HttpRequest& request) {
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  Result<Table> table = TableFromJson(parsed.ValueOrDie());
  if (!table.ok()) return ErrorResponse(table.status());
  std::string name = table.ValueOrDie().name();
  Status registered = RegisterTable(std::move(table).ValueOrDie());
  if (!registered.ok()) return ErrorResponse(registered);
  JsonValue body = JsonValue::Object();
  body.Set("registered", JsonValue::String(name));
  body.Set("tables", JsonValue::Number(static_cast<double>(num_tables())));
  return JsonResponse(200, body);
}

HttpResponse DiscoveryService::HandleUnregister(const std::string& segment) {
  // A table name travels as one percent-encoded path segment, so a name
  // holding '/', '?', '%' or ' ' arrives as %2F, %3F, %25 or %20. A raw
  // '/' addresses no table.
  if (segment.empty() || segment.find('/') != std::string::npos) {
    return ErrorResponse(Status::NotFound("no table named '" + segment + "'"));
  }
  Result<std::string> decoded = PercentDecode(segment);
  if (!decoded.ok()) return ErrorResponse(decoded.status());
  const std::string& name = decoded.ValueOrDie();
  Status removed = UnregisterTable(name);
  if (!removed.ok()) return ErrorResponse(removed);
  JsonValue body = JsonValue::Object();
  body.Set("unregistered", JsonValue::String(name));
  body.Set("tables", JsonValue::Number(static_cast<double>(num_tables())));
  return JsonResponse(200, body);
}

HttpResponse DiscoveryService::HandleDiscovery(const HttpRequest& request,
                                               const std::string& mode,
                                               const CancellationToken* cancel,
                                               RequestObs* obs) {
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const JsonValue& body = parsed.ValueOrDie();
  if (!body.is_object()) {
    return ErrorResponse(
        Status::InvalidArgument("request body must be a JSON object"));
  }
  const JsonValue* table_json = body.Find("table");
  if (table_json == nullptr) {
    return ErrorResponse(Status::InvalidArgument("missing 'table'"));
  }
  Result<Table> table = TableFromJson(*table_json);
  if (!table.ok()) return ErrorResponse(table.status());

  size_t k = 10;
  if (const JsonValue* k_json = body.Find("k"); k_json != nullptr) {
    if (!k_json->is_number() || !(k_json->number_value() >= 1.0)) {
      return ErrorResponse(
          Status::InvalidArgument("'k' must be a number >= 1"));
    }
    double bounded = std::min(k_json->number_value(), 10000.0);
    k = static_cast<size_t>(bounded);
  }

  bool want_explain = false;
  if (const JsonValue* explain_json = body.Find("explain");
      explain_json != nullptr) {
    if (!explain_json->is_bool()) {
      return ErrorResponse(
          Status::InvalidArgument("'explain' must be a boolean"));
    }
    want_explain = explain_json->bool_value();
  }

  MatchContext ctx;
  ctx.cancel = cancel;
  if (obs != nullptr) {
    // Join the discovery spans to the request trace: the engine's
    // "query" span (and its retrieve/enrich/rerank stage spans) parent
    // onto the serve.request span through these two fields.
    ctx.trace_id = obs->trace_id;
    ctx.parent_span = obs->span_id;
  }
  if (const JsonValue* budget = body.Find("budget_ms"); budget != nullptr) {
    if (!budget->is_number()) {
      return ErrorResponse(
          Status::InvalidArgument("'budget_ms' must be a number"));
    }
    // Non-positive budgets become an already-expired deadline and fail
    // the query with kDeadlineExceeded before any scoring (the
    // contract tested at this boundary); oversized budgets clamp.
    double budget_ms = std::min(budget->number_value(), options_.max_budget_ms);
    ctx.deadline = Deadline::AfterMs(budget_ms);
    if (obs != nullptr) obs->budget_ms = std::max(budget_ms, 0.0);
  }

  std::shared_ptr<const DiscoveryEngine> engine = Snapshot();
  DiscoveryExplain explain;
  DiscoveryExplain* explain_out = want_explain ? &explain : nullptr;
  Result<std::vector<DiscoveryResult>> found =
      mode == "joinable"
          ? engine->FindJoinable(table.ValueOrDie(), k, ctx, explain_out)
          : engine->FindUnionable(table.ValueOrDie(), k, ctx, explain_out);
  if (obs != nullptr && !ctx.deadline.never_expires()) {
    obs->deadline_remaining_ms = ctx.deadline.remaining_ms();
  }
  if (!found.ok()) {
    if (obs != nullptr) {
      obs->error_code = StatusCodeName(found.status().code());
    }
    HttpResponse error =
        ErrorResponse(found.status(), options_.retry_after_s);
    if (error.status == 503 && options_.metrics != nullptr) {
      // Request-level sheds (drain cancellation, exhausted engine),
      // labelled by route + reason. The unlabelled series of the same
      // name stays the transport's accept-time shed ledger — that one
      // fires before any bytes are parsed, so it cannot know a route.
      options_.metrics
          ->CounterFor("valentine_serve_shed_total",
                       {{"reason", StatusCodeName(found.status().code())},
                        {"route", mode}})
          ->Increment();
    }
    return error;
  }
  HttpResponse response;
  response.status = 200;
  response.body = RenderDiscoveryResults(table.ValueOrDie().name(), mode, k,
                                         found.ValueOrDie(), explain_out);
  return response;
}

}  // namespace serve
}  // namespace valentine
