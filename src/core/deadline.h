#ifndef VALENTINE_CORE_DEADLINE_H_
#define VALENTINE_CORE_DEADLINE_H_

/// \file deadline.h
/// Cooperative time budgets and cancellation.
///
/// The paper ran ~75K grid-searched experiments as batch jobs; at that
/// scale one hung fixpoint or pathological word2vec config must not
/// stall a campaign. Long-running library code (matcher hot loops,
/// embedding training) periodically calls MatchContext::Check() and
/// returns kDeadlineExceeded / kCancelled cleanly instead of running
/// unbounded. Deadlines are steady-clock only — wall-clock time
/// (std::chrono::system_clock) can jump under NTP and is banned from
/// library code by tools/lint/valentine_lint.py.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "core/status.h"

namespace valentine {

/// \brief A fixed point on the steady clock by which work must finish.
///
/// Default-constructed deadlines never expire, so a MatchContext can be
/// threaded through unconditionally with zero overhead semantics for
/// unbudgeted runs. Cheap to copy.
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  /// Never expires (explicit spelling).
  static Deadline Never() { return Deadline(); }

  /// Expires `budget` from now. Non-positive budgets produce an
  /// already-expired deadline (see AlreadyExpired) instead of doing
  /// clock arithmetic: `now() + budget` with a large negative budget
  /// overflows the time_point (UB that can wrap into the far future and
  /// silently disable the deadline), and a zero budget would leave
  /// expiry racing the clock's first tick. A request that arrives with
  /// no budget left must fail deterministically before any work starts.
  static Deadline After(std::chrono::nanoseconds budget) {
    if (budget <= std::chrono::nanoseconds::zero()) return AlreadyExpired();
    return Deadline(std::chrono::steady_clock::now() + budget);
  }

  /// Expires `budget_ms` milliseconds from now. Non-positive (and NaN)
  /// budgets produce an already-expired deadline; sub-nanosecond
  /// positive budgets round down to zero and are treated the same.
  static Deadline AfterMs(double budget_ms) {
    if (!(budget_ms > 0.0)) return AlreadyExpired();
    constexpr double kMaxMs = 9.0e12;  // ~104 days; caps the ns cast
    double clamped = budget_ms < kMaxMs ? budget_ms : kMaxMs;
    return After(std::chrono::nanoseconds(
        static_cast<int64_t>(clamped * 1e6)));
  }

  /// A deadline that has already passed: expired() is true from
  /// construction onward, independent of clock reads or their
  /// granularity.
  static Deadline AlreadyExpired() {
    return Deadline(std::chrono::steady_clock::time_point::min());
  }

  bool never_expires() const { return !at_.has_value(); }

  /// True once the steady clock has passed the deadline.
  bool expired() const {
    return at_.has_value() && std::chrono::steady_clock::now() >= *at_;
  }

  /// Remaining budget in milliseconds; +infinity when never_expires(),
  /// clamped at 0 once expired.
  double remaining_ms() const;

 private:
  explicit Deadline(std::chrono::steady_clock::time_point at) : at_(at) {}

  std::optional<std::chrono::steady_clock::time_point> at_;
};

/// \brief Thread-safe cooperative cancellation flag.
///
/// The owner (harness, embedder, signal handler) calls Cancel(); workers
/// observe it through MatchContext::Check(). Cancellation is sticky and
/// idempotent. Not copyable — share by pointer.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

class Clock;   // obs/clock.h
class Tracer;  // obs/trace.h

/// \brief Per-call execution context threaded through ColumnMatcher::Match.
///
/// Carries the time budget, an optional cancellation token, and a stable
/// trace id (the harness sets it to the (family, pair, config) experiment
/// key) that fault-injection decorators key their deterministic plans on.
/// Default-constructed contexts never expire and are never cancelled, so
/// legacy call sites lose nothing.
struct MatchContext {
  Deadline deadline;
  const CancellationToken* cancel = nullptr;
  /// Stable experiment identifier, independent of scheduling order.
  std::string trace_id;
  /// Injectable timing source for *measurements* (obs/clock.h); nullptr
  /// = process steady clock. Deadlines above stay on the real steady
  /// clock regardless — a fake clock must not disable time budgets.
  const Clock* clock = nullptr;
  /// Span sink (obs/trace.h); nullptr = tracing off. `parent_span` is
  /// the enclosing span id (0 = root) under which callees nest their
  /// spans using `trace_id` as the trace key.
  Tracer* tracer = nullptr;
  uint64_t parent_span = 0;

  /// kCancelled when the token fired, kDeadlineExceeded when the budget
  /// ran out, OK otherwise. `where` names the checkpoint for the error
  /// message (messages stay wall-clock-free so reports are byte-stable).
  Status Check(const char* where = "") const;
};

}  // namespace valentine

#endif  // VALENTINE_CORE_DEADLINE_H_
