#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace valentine {
namespace serve {

namespace {

/// Applies a millisecond timeout to SO_RCVTIMEO/SO_SNDTIMEO.
void SetSocketTimeout(int fd, int optname, int timeout_ms) {
  if (timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

}  // namespace

HttpServer::HttpServer(DiscoveryService* service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {}

HttpServer::~HttpServer() { Shutdown(/*drain_ms=*/500.0); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Internal("server already started");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket(): " + std::string(strerror(errno)));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparseable bind address '" +
                                   options_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    Status s = Status::IOError("bind(" + options_.host + ":" +
                               std::to_string(options_.port) +
                               "): " + std::string(strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, 128) != 0) {
    Status s = Status::IOError("listen(): " + std::string(strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &addr_len) == 0) {
    port_.store(ntohs(addr.sin_port), std::memory_order_release);
  }
  if (pipe(wake_pipe_) != 0) {
    Status s = Status::IOError("pipe(): " + std::string(strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  running_.store(true, std::memory_order_release);
  size_t workers = options_.workers == 0 ? 1 : options_.workers;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  PublishServerState();
  return Status::OK();
}

void HttpServer::PublishServerState() {
  if (options_.telemetry == nullptr) return;
  ServeTelemetry::ServerState state;
  state.running = running_.load(std::memory_order_acquire);
  state.draining = draining_.load(std::memory_order_acquire);
  state.workers = options_.workers == 0 ? 1 : options_.workers;
  state.queue_capacity = options_.queue_capacity;
  options_.telemetry->PublishServerState(state);
}

void HttpServer::PublishQueueDepth() {
  if (options_.metrics == nullptr) return;
  options_.metrics->GaugeFor("valentine_serve_queue_depth")
      ->Set(static_cast<double>(queue_.depth()));
}

void HttpServer::AcceptLoop() {
  // Pre-serialize the shed response: overload must not allocate per
  // shed beyond the send buffer.
  const std::string shed_bytes = SerializeResponse(
      ErrorResponse(
          Status::ResourceExhausted(
              "server overloaded: admission queue full"),
          options_.retry_after_s),
      /*close_connection=*/true);

  while (!draining_.load(std::memory_order_acquire)) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    int ready = poll(fds, 2, /*timeout=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain wake-up
    if ((fds[0].revents & POLLIN) == 0) continue;

    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (options_.metrics != nullptr) {
      options_.metrics->CounterFor("valentine_serve_connections_total")
          ->Increment();
    }
    SetSocketTimeout(fd, SO_RCVTIMEO, options_.read_timeout_ms);
    SetSocketTimeout(fd, SO_SNDTIMEO, options_.write_timeout_ms);
    // Queue wait is timed on the telemetry clock (injectable) so
    // fake-clock runs log deterministic waits; it measures admission
    // latency, not socket I/O, so a Clock may legitimately stand in.
    int64_t enqueue_ns = options_.telemetry != nullptr
                             ? options_.telemetry->clock().NowNanos()
                             : 0;
    if (queue_.TryEnqueue(fd, enqueue_ns)) {
      PublishQueueDepth();
      continue;
    }
    // Shed: answer 503 + Retry-After inline and close. SO_SNDTIMEO is
    // already set, so a malicious zero-window peer cannot park the
    // acceptor.
    if (options_.metrics != nullptr) {
      options_.metrics->CounterFor("valentine_serve_shed_total")->Increment();
    }
    SendAll(fd, shed_bytes);
    close(fd);
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    std::optional<AdmittedConnection> admitted = queue_.Dequeue();
    if (!admitted.has_value()) return;  // queue closed and drained
    PublishQueueDepth();
    const int fd = admitted->fd;
    double queue_wait_ms = 0.0;
    if (options_.telemetry != nullptr) {
      queue_wait_ms = ElapsedMs(admitted->enqueue_ns,
                                options_.telemetry->clock().NowNanos());
    }
    {
      MutexLock lock(&mu_);
      ++inflight_;
      open_fds_.insert(fd);
      if (options_.metrics != nullptr) {
        options_.metrics->GaugeFor("valentine_serve_inflight")
            ->Set(static_cast<double>(inflight_));
      }
    }
    ServeConnection(fd, queue_wait_ms);
    {
      // Unregister before close(): Shutdown only ::shutdown()s fds
      // still in the set, so a closed (possibly reused) descriptor can
      // never be hit.
      MutexLock lock(&mu_);
      --inflight_;
      open_fds_.erase(fd);
      if (options_.metrics != nullptr) {
        options_.metrics->GaugeFor("valentine_serve_inflight")
            ->Set(static_cast<double>(inflight_));
      }
    }
    close(fd);
    idle_cv_.NotifyAll();
  }
}

void HttpServer::ServeConnection(int fd, double queue_wait_ms) {
  HttpRequestParser parser(options_.http_limits);
  std::string pending;  // bytes read past the current request
  char buf[8192];
  size_t served = 0;
  uint64_t request_bytes = 0;  // wire bytes consumed by the current request

  while (served < options_.max_requests_per_connection) {
    bool saw_bytes = !pending.empty();
    // Feed leftover pipelined bytes first, then the socket.
    if (!pending.empty()) {
      size_t used = parser.Consume(pending.data(), pending.size());
      pending.erase(0, used);
      request_bytes += used;
    }
    while (!parser.complete() && !parser.failed()) {
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        // Timeout or peer disconnect. A torn request (bytes arrived,
        // then silence) earns a 408 so the client learns why; an idle
        // keep-alive close is just a close.
        bool mid_request =
            saw_bytes || parser.state() != HttpRequestParser::State::kHeaders;
        if (mid_request && n < 0 &&
            (errno == EAGAIN || errno == EWOULDBLOCK)) {
          HttpResponse timeout;
          timeout.status = 408;
          timeout.body = JsonErrorEnvelope(
              Status::DeadlineExceeded("timed out reading request"), 408);
          SendAll(fd, SerializeResponse(timeout, /*close=*/true));
        }
        return;
      }
      saw_bytes = true;
      size_t used = parser.Consume(buf, static_cast<size_t>(n));
      if (used < static_cast<size_t>(n)) {
        pending.append(buf + used, static_cast<size_t>(n) - used);
      }
      request_bytes += used;
    }

    if (parser.failed()) {
      HttpResponse bad;
      bad.status = parser.http_status();
      bad.body = JsonErrorEnvelope(parser.error_status(), bad.status);
      SendAll(fd, SerializeResponse(bad, /*close=*/true));
      return;
    }

    const HttpRequest& request = parser.request();
    RequestLogEntry entry;
    // Queue wait belongs to the connection's admission; charge it to
    // the first request only — keep-alive successors never queued.
    HttpResponse response = HandleWithTelemetry(
        service_, options_.telemetry, request, &drain_cancel_,
        served == 0 ? queue_wait_ms : 0.0,
        options_.telemetry != nullptr ? &entry : nullptr);
    ++served;
    bool close_after = request.WantsClose() ||
                       served >= options_.max_requests_per_connection ||
                       draining_.load(std::memory_order_acquire);
    const std::string wire = SerializeResponse(response, close_after);
    if (options_.telemetry != nullptr) {
      // Amend the transport-truth byte counts before logging: raw bytes
      // consumed off the wire in, serialized response (headers
      // included) out.
      entry.bytes_in = request_bytes;
      entry.bytes_out = wire.size();
      options_.telemetry->RecordRequest(entry);
    }
    request_bytes = 0;
    if (!SendAll(fd, wire)) return;
    if (close_after) return;
    parser.Reset();
  }
}

bool HttpServer::SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                     MSG_NOSIGNAL);
    if (n <= 0) return false;  // timeout, reset, or dead peer
    sent += static_cast<size_t>(n);
  }
  return true;
}

void HttpServer::BeginDrain() {
  if (!running_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  // Refuse new admissions, then wake the acceptor out of poll().
  queue_.Close();
  char byte = 1;
  ssize_t ignored = write(wake_pipe_[1], &byte, 1);
  (void)ignored;
  PublishServerState();
}

void HttpServer::Shutdown(double drain_ms) {
  if (!running_.load(std::memory_order_acquire)) return;
  BeginDrain();
  if (acceptor_.joinable()) acceptor_.join();
  // No new connections can arrive now; give in-flight requests their
  // drain budget, then cut the stragglers off cooperatively.
  Deadline drain = Deadline::AfterMs(drain_ms);
  {
    MutexLock lock(&mu_);
    while (inflight_ > 0 && !drain.expired()) {
      idle_cv_.WaitFor(&mu_, std::chrono::milliseconds(10));
    }
    if (inflight_ > 0) {
      // Out of patience: cancel cooperative engine work. The cancelled
      // request still gets its 503 written, so give workers a short
      // grace to deliver it before yanking stragglers (idle keep-alive
      // reads, dead peers) out of blocked socket calls.
      drain_cancel_.Cancel();
      constexpr double kCancelGraceMs = 1000.0;
      Deadline grace = Deadline::AfterMs(kCancelGraceMs);
      while (inflight_ > 0 && !grace.expired()) {
        idle_cv_.WaitFor(&mu_, std::chrono::milliseconds(10));
      }
      for (int fd : open_fds_) shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_pipe_[0] >= 0) {
    close(wake_pipe_[0]);
    close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
  running_.store(false, std::memory_order_release);
}

size_t HttpServer::inflight() const {
  MutexLock lock(&mu_);
  return inflight_;
}

}  // namespace serve
}  // namespace valentine
