#ifndef VALENTINE_SERVE_SERVICE_H_
#define VALENTINE_SERVE_SERVICE_H_

/// \file service.h
/// The HTTP-facing discovery service: request routing, JSON codecs, and
/// a copy-on-write table registry over DiscoveryEngine.
///
/// Concurrency model: DiscoveryEngine supports concurrent const queries
/// but AddTable is not safe against them, and the engine is
/// non-copyable. The service therefore treats each engine as an
/// immutable snapshot. On every mutation it copies the current
/// snapshot's TableRepository (entries are immutable and shared) and
/// its LshCandidateIndex (segments are immutable and shared), applies
/// the one-table delta to both copies, and publishes a fresh engine
/// adopting them through the three-argument
/// DiscoveryEngine::FromRepository. The engine swaps in as a
/// `shared_ptr<const DiscoveryEngine>` snapshot: queries grab it under
/// a brief lock and then run entirely lock-free on an engine no
/// mutation will ever touch; in-flight queries on a replaced snapshot
/// keep it alive until they finish, and the mutation that replaced it
/// drops its own reference only after releasing the lock. A fresh
/// engine starts warm: each entry keeps the reranker artifact the first
/// query that scored it built (RegisteredTable::prepared).
///
/// Mutation cost: O(delta) artifact work (fingerprint, sketch, or a
/// store hit) plus amortised O(log N) table entries banded, N = live
/// tables. A removal is lazy, and a segment is rebuilt from its live
/// tables once half of them are removed. Queries
/// probe at most floor(log2 N) + 1 segments per column (4 at 300
/// tables). See discovery/candidate_index.h for the segment rules.
/// valentine_discovery_index_banded_total counts the banded entries.
///
/// Byte-identity contract: responses are rendered by the same
/// RenderDiscoveryResults used by the tests' direct-engine path, and
/// discovery rankings order by (score, name), so the ranking a client
/// sees over HTTP is byte-identical to calling DiscoveryEngine directly
/// on the same tables, independent of registration order.

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/deadline.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/table.h"
#include "core/thread_annotations.h"
#include "discovery/discovery.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/telemetry.h"

namespace valentine {
namespace serve {

/// Decodes a table from its JSON wire form:
///   {"name": "t", "columns": [{"name": "c", "type": "string"?,
///                              "values": [1, "a", null, true]}]}
/// `type` is optional (inferred from the first non-null cell, string
/// when all null). Cells must be JSON scalars; columns must be equal
/// length. All violations yield kInvalidArgument.
Result<Table> TableFromJson(const JsonValue& value);

/// Canonical JSON body for a discovery response. This is THE rendering
/// both the server and the byte-identity tests use: any drift between
/// served results and a direct DiscoveryEngine call shows up as a byte
/// diff, not a subtle float-formatting mismatch. When `explain` is
/// non-null (the request opted in) an "explain" object is appended with
/// per-stage candidate counts and the CandidateIndex that served the
/// query; the "results" bytes are identical either way.
std::string RenderDiscoveryResults(const std::string& query_table,
                                   const std::string& mode, size_t k,
                                   const std::vector<DiscoveryResult>& results,
                                   const DiscoveryExplain* explain = nullptr);

/// Configuration for DiscoveryService.
struct ServiceOptions {
  /// Produces the matcher for each engine snapshot
  /// (DiscoveryOptions::matcher is owning and a new engine is published
  /// per mutation, so the service needs a factory, not an instance).
  /// Null uses the engine's built-in default (COMA-Instances).
  std::function<MatcherPtr()> matcher_factory;
  /// Passed through to every engine snapshot.
  double min_containment = 0.3;
  size_t union_evidence_columns = 3;
  /// Borrowed observability; /metrics renders this registry and the
  /// service bumps valentine_serve_requests_total{route,code} on it.
  /// Optional.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  const Clock* clock = nullptr;
  /// Borrowed request-telemetry spine (trace ids, access log, /tracez
  /// ring, /statusz server state). Optional; must outlive the service.
  ServeTelemetry* telemetry = nullptr;
  /// Advertised in the Retry-After header of request-level 503s (a
  /// drained/cancelled discovery query). The transport-level shed 503
  /// has its own knob in ServerOptions.
  int retry_after_s = 1;
  /// Largest accepted `budget_ms` (requests asking for more are
  /// clamped, not rejected — a client cannot buy an unbounded request).
  double max_budget_ms = 60000.0;
  /// Optional persistent artifact store (borrowed; must outlive the
  /// service), consulted once per *newly registered* table — later
  /// snapshots share the already-loaded repository entries and never
  /// touch the store — and what lets a restarted process warm up from disk
  /// without rebuilding sketches.
  ArtifactStore* store = nullptr;
};

/// \brief Routes HTTP requests onto a copy-on-write DiscoveryEngine.
///
/// Thread-safe: Handle/RegisterTable/UnregisterTable may be called from
/// any number of worker threads concurrently.
class DiscoveryService {
 public:
  explicit DiscoveryService(ServiceOptions options = {});

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// Handles one parsed request and produces the full response.
  /// `cancel` is the server's drain token (nullptr when standalone); it
  /// is threaded into discovery queries so SIGTERM can cut in-flight
  /// work off cooperatively. `obs`, when non-null, carries the request
  /// trace identity in (threading discovery spans under the
  /// serve.request span) and routing/budget/outcome fields out — see
  /// RequestObs. Response bytes are identical with or without it.
  HttpResponse Handle(const HttpRequest& request,
                      const CancellationToken* cancel = nullptr,
                      RequestObs* obs = nullptr) EXCLUDES(mu_);

  /// Registers a table (validates first, commits only on success).
  Status RegisterTable(Table table) EXCLUDES(mu_);

  /// Removes a table by name; kNotFound when absent.
  Status UnregisterTable(const std::string& name) EXCLUDES(mu_);

  /// Current engine snapshot (never null; empty engine at startup).
  /// Queries on it stay valid across concurrent mutations.
  std::shared_ptr<const DiscoveryEngine> Snapshot() const EXCLUDES(mu_);

  size_t num_tables() const EXCLUDES(mu_);

 private:
  /// Engine options for the next snapshot (a fresh matcher per engine).
  DiscoveryOptions EngineOptions() const;

  /// Publishes an engine adopting `index` (the previous snapshot's index
  /// with this mutation's delta applied) over `next`, and hands the
  /// replaced snapshot to `replaced` so the caller frees it after
  /// releasing mu_.
  Status Publish(TableRepository next, LshCandidateIndex index,
                 std::shared_ptr<const DiscoveryEngine>* replaced)
      REQUIRES(mu_);

  /// Routing helpers; each returns the complete response.
  HttpResponse HandleHealth() EXCLUDES(mu_);
  HttpResponse HandleMetrics();
  HttpResponse HandleStatusz() EXCLUDES(mu_);
  HttpResponse HandleTracez();
  HttpResponse HandleRegister(const HttpRequest& request) EXCLUDES(mu_);
  /// `segment` is the raw path segment after "/v1/tables/".
  HttpResponse HandleUnregister(const std::string& segment) EXCLUDES(mu_);
  HttpResponse HandleDiscovery(const HttpRequest& request,
                               const std::string& mode,
                               const CancellationToken* cancel,
                               RequestObs* obs) EXCLUDES(mu_);

  void CountRequest(const std::string& route, int http_status);

  ServiceOptions options_;  // lint:allow(guarded-by-coverage) immutable after construction
  mutable Mutex mu_{LockRank::kServeRegistry, "DiscoveryService"};
  /// The current snapshot; its repository() is the authoritative
  /// registry. Mutations copy the repository and the LSH index (cheap:
  /// entries and segments are shared), apply the delta to the
  /// copies, and swap in an engine over them.
  std::shared_ptr<const DiscoveryEngine> engine_ GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace valentine

#endif  // VALENTINE_SERVE_SERVICE_H_
