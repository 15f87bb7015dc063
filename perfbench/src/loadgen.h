#ifndef VALENTINE_PERFBENCH_LOADGEN_H_
#define VALENTINE_PERFBENCH_LOADGEN_H_

// Open-loop HTTP load generator over loopback.
//
// One thread, one event loop: at each request's due time (a timerfd
// wakes the loop) it opens a fresh connection and writes the request
// (Connection: close); between due times it epoll-waits on every
// connection in flight and reads each response to EOF. Sending never
// waits for a response, so a slow server builds a real backlog in its
// admission queue (and sheds at its bound) instead of slowing the
// arrivals down. Every request is timed from its due time; how late the
// generator itself sent it is recorded separately, so a run whose
// generator fell behind is caught rather than read as a slow server.

#include <cstdint>
#include <string>
#include <vector>

namespace valentine {
namespace perfbench {

/// One scheduled request. `payload` indexes the generator's payload
/// table (method, target and body); responses of a payload that
/// `keep_body` flags are hashed, and the first one is kept verbatim.
struct LoadRequest {
  int64_t due_ns = 0;
  uint32_t payload = 0;
};

struct LoadPayload {
  std::string method;
  std::string target;
  std::string body;
  std::string route;  ///< the route label the server should count it under
  bool keep_body = false;
};

struct LoadOutcome {
  int64_t due_ns = 0;
  int64_t send_ns = 0;  ///< when the generator started connecting
  int64_t done_ns = 0;  ///< when the response was complete (or abandoned)
  uint32_t payload = 0;
  int status = 0;       ///< HTTP status; 0 = transport failure or timeout
  bool timed_out = false;
  uint64_t body_hash = 0;
  std::string body;     ///< only for the first response of a kept payload
  std::string trace_id; ///< sent as x-valentine-trace

  bool ok() const { return status == 200; }
  /// Latency from the due time (the open-loop measure).
  double latency_ms() const;
};

/// The exact bytes the generator writes for `payload`.
std::string RequestWire(const LoadPayload& payload, const std::string& trace_id);

class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, std::vector<LoadPayload> payloads);

  /// Runs the schedule (sorted by due time) to completion and returns
  /// one outcome per request, in schedule order. Requests unanswered
  /// `timeout_ms` after their due time are abandoned as failures.
  /// `trace_prefix` + index becomes each request's trace id.
  std::vector<LoadOutcome> Run(const std::vector<LoadRequest>& schedule,
                               const std::string& trace_prefix,
                               double timeout_ms = 10000.0) const;

  /// Closed loop: keeps `concurrency` requests in flight for `seconds`,
  /// sending the next payload of `cycle` as each one completes. The
  /// server's queue always holds work, yet no bound is overrun, so the
  /// completion rate is its sustained throughput. Due time = send time.
  std::vector<LoadOutcome> Saturate(const std::vector<uint32_t>& cycle,
                                    size_t concurrency, double seconds,
                                    const std::string& trace_prefix,
                                    double timeout_ms = 10000.0) const;

  /// One blocking request outside any schedule (scrapes, probes).
  LoadOutcome Fetch(const LoadPayload& payload) const;

 private:
  uint16_t port_;
  std::vector<LoadPayload> payloads_;
};

}  // namespace perfbench
}  // namespace valentine

#endif  // VALENTINE_PERFBENCH_LOADGEN_H_
