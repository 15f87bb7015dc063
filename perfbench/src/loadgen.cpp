#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>

#include "common.h"

namespace valentine {
namespace perfbench {

std::string RequestWire(const LoadPayload& p, const std::string& trace_id) {
  std::string wire = p.method + " " + p.target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\nConnection: close\r\n";
  wire += "x-valentine-trace: " + trace_id + "\r\n";
  if (!p.body.empty() || p.method == "POST") {
    wire += "Content-Type: application/json\r\n";
    wire += "Content-Length: " + std::to_string(p.body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += p.body;
  return wire;
}

namespace {

int Connect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  struct timeval tv;
  tv.tv_sec = 5;
  tv.tv_usec = 0;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Fills status/body from a complete raw response; false if malformed.
bool ParseResponse(const std::string& raw, int* status, std::string* body) {
  const size_t head_end = raw.find("\r\n\r\n");
  const size_t sp = raw.find(' ');
  if (head_end == std::string::npos || sp == std::string::npos ||
      sp > head_end) {
    return false;
  }
  *status = std::atoi(raw.c_str() + sp + 1);
  *body = raw.substr(head_end + 4);
  return true;
}

// The connections in flight of one generator run, multiplexed on one
// epoll set. Requests are addressed by their index into `out`, which the
// caller may grow between calls.
class Flights {
 public:
  Flights(uint16_t port, const std::vector<LoadPayload>& payloads,
          std::vector<LoadOutcome>* out)
      : port_(port), payloads_(payloads), out_(out),
        ep_(epoll_create1(EPOLL_CLOEXEC)) {}
  ~Flights() {
    for (const auto& [i, fd] : inflight_) close(fd);
    if (ep_ >= 0) close(ep_);
  }
  Flights(const Flights&) = delete;
  Flights& operator=(const Flights&) = delete;

  bool ok() const { return ep_ >= 0; }
  size_t inflight() const { return inflight_.size(); }

  /// Adds an extra descriptor (a timer) whose readiness wakes Poll().
  void Watch(int fd) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = kWatchTag;
    epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
  }

  /// Opens a connection for request `i` and writes it.
  void Send(uint32_t i) {
    LoadOutcome& o = (*out_)[i];
    o.send_ns = NowNs();
    const int fd = Connect(port_);
    if (fd < 0 || !SendAll(fd, RequestWire(payloads_[o.payload], o.trace_id))) {
      if (fd >= 0) close(fd);
      o.done_ns = o.send_ns;
      return;
    }
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = i;
    if (epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      o.done_ns = o.send_ns;
      return;
    }
    inflight_[i] = fd;
  }

  /// Waits up to `timeout_ms` and reads whatever arrived; returns the
  /// number of requests completed.
  size_t Poll(int timeout_ms) {
    struct epoll_event events[64];
    const int ready = epoll_wait(ep_, events, 64, timeout_ms);
    size_t completed = 0;
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u64 == kWatchTag) continue;
      const uint32_t i = static_cast<uint32_t>(events[e].data.u64);
      auto it = inflight_.find(i);
      if (it == inflight_.end()) continue;
      while (true) {
        ssize_t got = recv(it->second, buf_, sizeof(buf_), 0);
        if (got > 0) {
          buffers_[i].append(buf_, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        Finish(i, got == 0);
        ++completed;
        break;
      }
    }
    return completed;
  }

  /// Abandons requests unanswered `timeout_ns` after their due time.
  size_t Expire(int64_t timeout_ns) {
    const int64_t now = NowNs();
    std::vector<uint32_t> expired;
    for (const auto& [i, fd] : inflight_) {
      if (now - (*out_)[i].due_ns > timeout_ns) expired.push_back(i);
    }
    for (uint32_t i : expired) {
      (*out_)[i].timed_out = true;
      Finish(i, false);
    }
    return expired.size();
  }

 private:
  // An epoll tag no request index can take.
  static constexpr uint64_t kWatchTag = ~0ULL;

  void Finish(uint32_t i, bool ok_eof) {
    LoadOutcome& o = (*out_)[i];
    o.done_ns = NowNs();
    close(inflight_[i]);
    inflight_.erase(i);
    const std::string raw = std::move(buffers_[i]);
    buffers_.erase(i);
    std::string body;
    int status = 0;
    if (ok_eof && ParseResponse(raw, &status, &body)) {
      o.status = status;
      o.body_hash = Fnv1a(body);
      if (payloads_[o.payload].keep_body && kept_.insert(o.payload).second) {
        o.body = std::move(body);
      }
    }
  }

  uint16_t port_;
  const std::vector<LoadPayload>& payloads_;
  std::vector<LoadOutcome>* out_;
  int ep_;
  std::map<uint32_t, int> inflight_;  // request index -> fd
  std::map<uint32_t, std::string> buffers_;
  std::set<uint32_t> kept_;            // payloads whose body is kept
  char buf_[16384];
};

}  // namespace

double LoadOutcome::latency_ms() const { return NsToMs(done_ns - due_ns); }

LoadGenerator::LoadGenerator(uint16_t port, std::vector<LoadPayload> payloads)
    : port_(port), payloads_(std::move(payloads)) {}

std::vector<LoadOutcome> LoadGenerator::Run(
    const std::vector<LoadRequest>& schedule, const std::string& trace_prefix,
    double timeout_ms) const {
  const size_t n = schedule.size();
  std::vector<LoadOutcome> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].due_ns = schedule[i].due_ns;
    out[i].payload = schedule[i].payload;
    out[i].trace_id = trace_prefix + std::to_string(i);
  }
  Flights flights(port_, payloads_, &out);
  // The timer wakes the loop at the next due time; responses wake it as
  // they arrive.
  const int timer = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (!flights.ok() || timer < 0) {
    if (timer >= 0) close(timer);
    for (LoadOutcome& o : out) o.done_ns = o.send_ns = o.due_ns;
    return out;
  }
  flights.Watch(timer);
  const int64_t timeout_ns = static_cast<int64_t>(timeout_ms * 1e6);
  int64_t last_sweep = NowNs();
  size_t next = 0;
  while (next < n || flights.inflight() > 0) {
    while (next < n && NowNs() >= schedule[next].due_ns) {
      flights.Send(static_cast<uint32_t>(next++));
    }
    if (next < n) {
      struct itimerspec due;
      std::memset(&due, 0, sizeof(due));
      due.it_value.tv_sec =
          static_cast<time_t>(schedule[next].due_ns / 1000000000LL);
      due.it_value.tv_nsec =
          static_cast<long>(schedule[next].due_ns % 1000000000LL);
      timerfd_settime(timer, TFD_TIMER_ABSTIME, &due, nullptr);
    }
    flights.Poll(50);
    uint64_t expirations = 0;
    ssize_t drained = read(timer, &expirations, sizeof(expirations));
    (void)drained;
    if (NowNs() - last_sweep > 50000000LL) {
      last_sweep = NowNs();
      flights.Expire(timeout_ns);
    }
  }
  close(timer);
  return out;
}

std::vector<LoadOutcome> LoadGenerator::Saturate(
    const std::vector<uint32_t>& cycle, size_t concurrency, double seconds,
    const std::string& trace_prefix, double timeout_ms) const {
  std::vector<LoadOutcome> out;
  Flights flights(port_, payloads_, &out);
  if (!flights.ok() || cycle.empty()) return out;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const int64_t timeout_ns = static_cast<int64_t>(timeout_ms * 1e6);
  auto send_next = [&] {
    const uint32_t i = static_cast<uint32_t>(out.size());
    LoadOutcome o;
    o.due_ns = NowNs();
    o.payload = cycle[i % cycle.size()];
    o.trace_id = trace_prefix + std::to_string(i);
    out.push_back(std::move(o));
    flights.Send(i);
  };
  for (size_t c = 0; c < concurrency; ++c) send_next();
  while (flights.inflight() > 0) {
    size_t completed = flights.Poll(50);
    completed += flights.Expire(timeout_ns);
    for (; completed > 0 && NowNs() < end; --completed) send_next();
  }
  return out;
}

LoadOutcome LoadGenerator::Fetch(const LoadPayload& payload) const {
  LoadOutcome o;
  o.due_ns = o.send_ns = NowNs();
  o.trace_id = "perfbench/fetch";
  const int fd = Connect(port_);
  if (fd >= 0 && SendAll(fd, RequestWire(payload, o.trace_id))) {
    std::string raw;
    char buf[16384];
    while (true) {
      ssize_t got = recv(fd, buf, sizeof(buf), 0);
      if (got <= 0) break;
      raw.append(buf, static_cast<size_t>(got));
    }
    std::string body;
    int status = 0;
    if (ParseResponse(raw, &status, &body)) {
      o.status = status;
      o.body_hash = Fnv1a(body);
      o.body = std::move(body);
    }
  }
  if (fd >= 0) close(fd);
  o.done_ns = NowNs();
  return o;
}

}  // namespace perfbench
}  // namespace valentine
