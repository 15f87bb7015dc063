#ifndef VALENTINE_SERVE_SERVER_H_
#define VALENTINE_SERVE_SERVER_H_

/// \file server.h
/// The HTTP/1.1 transport: blocking POSIX sockets, a fixed worker
/// pool, and the bounded admission queue in between.
///
/// Threading layout (all threads owned by HttpServer):
///   acceptor ── accept() ──► AdmissionQueue ──► worker × N
/// The acceptor never parses bytes; when the queue refuses a
/// connection it writes a pre-serialized 503 + Retry-After and closes
/// — shedding costs one send, not a worker. Workers own one
/// connection at a time end-to-end (read → parse → handle → write →
/// keep-alive loop).
///
/// Robustness contract:
///  * every connection socket carries SO_RCVTIMEO/SO_SNDTIMEO, so a
///    stalled peer costs a bounded wait, never a parked worker forever;
///    a connection that times out mid-request gets a 408 and is closed;
///  * parser failures (oversized, malformed, torn) answer with the
///    parser's HTTP status + JSON error envelope, then close;
///  * Shutdown(drain_ms) stops the acceptor, lets in-flight work finish
///    for up to `drain_ms`, then fires the drain CancellationToken so
///    cooperative engine queries abort with kCancelled (served as 503);
///    an admitted connection always receives *some* response.
///
/// The wallclock-time lint rule is relaxed for this file (see
/// tools/lint): request latency is measured against the real steady
/// clock because it times real socket I/O — no FakeClock can stand in.

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "serve/service.h"
#include "serve/telemetry.h"

namespace valentine {
namespace serve {

/// Transport configuration.
struct ServerOptions {
  /// Bind address; loopback by default (this daemon has no auth story —
  /// exposing it beyond localhost is a deployment decision, not ours).
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read the outcome from port().
  uint16_t port = 0;
  size_t workers = 4;
  /// Admission queue bound: connections waiting for a worker beyond
  /// this are shed with 503 + Retry-After.
  size_t queue_capacity = 64;
  HttpLimits http_limits;
  /// Per-socket receive/send timeouts (slow-loris / stalled-peer bound).
  int read_timeout_ms = 5000;
  int write_timeout_ms = 5000;
  /// Keep-alive cap: requests served on one connection before close.
  size_t max_requests_per_connection = 100;
  /// Advertised in the Retry-After header of shed responses.
  int retry_after_s = 1;
  /// Borrowed; the transport publishes valentine_serve_shed_total,
  /// _connections_total, _inflight and _queue_depth here.
  MetricsRegistry* metrics = nullptr;
  /// Borrowed request-telemetry spine (trace ids, serve.request spans,
  /// JSONL access log, queue-wait timing, /statusz server state).
  /// Optional; when set it should be the same instance as
  /// ServiceOptions::telemetry so /statusz and /tracez see the
  /// transport's requests. Must outlive the server.
  ServeTelemetry* telemetry = nullptr;
};

/// \brief Blocking HTTP server over a DiscoveryService.
///
/// Lifecycle: construct → Start() → (serve) → Shutdown(drain_ms).
/// Start/Shutdown are not thread-safe against each other; everything
/// in between is. The destructor calls Shutdown with a short drain.
class HttpServer {
 public:
  /// `service` is borrowed and must outlive the server.
  HttpServer(DiscoveryService* service, ServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the acceptor + worker pool.
  Status Start();

  /// Stops accepting new connections and closes the admission queue
  /// (already-admitted connections keep draining). Idempotent.
  void BeginDrain();

  /// Full stop: BeginDrain, wait up to `drain_ms` for in-flight
  /// requests to finish, then cancel the rest cooperatively and join
  /// every thread. Safe to call more than once.
  void Shutdown(double drain_ms = 2000.0);

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Drain token threaded into every request's discovery context.
  const CancellationToken* drain_token() const { return &drain_cancel_; }

  /// Admission totals (mirrored into metrics; exposed for tests).
  uint64_t shed_total() const { return queue_.shed_total(); }
  uint64_t admitted_total() const { return queue_.admitted_total(); }
  size_t inflight() const EXCLUDES(mu_);

 private:
  void AcceptLoop();
  void WorkerLoop();
  /// Serves one admitted connection until close/keep-alive ends.
  /// `queue_wait_ms` is the admission wait, charged to the first
  /// request of the connection (keep-alive successors never queued).
  void ServeConnection(int fd, double queue_wait_ms);
  /// Mirrors lifecycle state onto the telemetry spine (no-op without
  /// one); /statusz renders it.
  void PublishServerState();
  /// Sends all of `bytes` (bounded by SO_SNDTIMEO); false on failure.
  bool SendAll(int fd, const std::string& bytes);
  void PublishQueueDepth();

  DiscoveryService* service_;  // lint:allow(guarded-by-coverage) immutable
  ServerOptions options_;  // lint:allow(guarded-by-coverage) immutable
  AdmissionQueue queue_;  // lint:allow(guarded-by-coverage) internally synchronized
  CancellationToken drain_cancel_;  // lint:allow(guarded-by-coverage) atomic
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;  // lint:allow(guarded-by-coverage) set before threads start
  int wake_pipe_[2] = {-1, -1};  // lint:allow(guarded-by-coverage) set before threads start

  mutable Mutex mu_{LockRank::kServeServer, "HttpServer"};
  CondVar idle_cv_;  // lint:allow(guarded-by-coverage) internally synchronized
  size_t inflight_ GUARDED_BY(mu_) = 0;
  /// Sockets currently owned by workers. A worker removes its fd under
  /// mu_ *before* closing it, so Shutdown can safely ::shutdown() every
  /// member to yank stragglers out of blocked recv/send.
  std::set<int> open_fds_ GUARDED_BY(mu_);

  std::thread acceptor_;  // lint:allow(guarded-by-coverage) joined by Shutdown only
  std::vector<std::thread> workers_;  // lint:allow(guarded-by-coverage) joined by Shutdown only
};

}  // namespace serve
}  // namespace valentine

#endif  // VALENTINE_SERVE_SERVER_H_
