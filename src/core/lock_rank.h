#ifndef VALENTINE_CORE_LOCK_RANK_H_
#define VALENTINE_CORE_LOCK_RANK_H_

/// \file lock_rank.h
/// Runtime lock-ordering discipline for valentine::Mutex.
///
/// The Clang capability analysis (thread_annotations.h) proves that
/// guarded state is only touched under its mutex, but it cannot prove
/// the *order* in which two mutexes nest — and a rank inversion (thread
/// A holds X and waits for Y while thread B holds Y and waits for X) is
/// a deadlock TSan only reports if the losing interleaving actually
/// fires. This registry makes the ordering a checked invariant on every
/// acquisition, on any toolchain:
///
///  * every Mutex carries a fixed LockRank, one per subsystem;
///  * a thread may only acquire a mutex whose rank is strictly greater
///    than every ranked mutex it already holds (outer subsystems rank
///    low, leaf subsystems — obs — rank high);
///  * re-acquiring a mutex the thread already holds (self-deadlock with
///    std::mutex) is always a violation, regardless of rank.
///
/// The tracker itself is always compiled (so tests exercise detection
/// under every build type); Mutex only *calls* it when
/// VALENTINE_LOCK_RANK_CHECKS_ENABLED is 1 — debug/sanitizer builds.
/// Release builds (NDEBUG) compile the calls out entirely: zero
/// overhead on the serving path.
///
/// Violations invoke the installed handler; the default prints the two
/// mutexes involved and aborts. Tests install a recording handler.

#include <cstddef>

namespace valentine {

/// One rank per mutex-owning subsystem. A thread must acquire in
/// strictly increasing rank order: harness-level locks first, cache
/// locks next, observability (metrics/trace) locks last — obs is a leaf
/// dependency that outer critical sections may call into, never the
/// other way around. Gaps leave room for new subsystems; see DESIGN.md
/// §11 for the table and the rules for adding one.
enum class LockRank : int {
  /// Opts out of ordering checks (self-deadlock is still detected).
  /// For mutexes with no cross-subsystem nesting story yet; prefer a
  /// real rank.
  kUnranked = 0,
  kServeAdmission = 4,   ///< serve/admission.* (AdmissionQueue)
  kServeServer = 5,      ///< serve/server.* (HttpServer lifecycle/in-flight)
  kServeRegistry = 6,    ///< serve/service.* (DiscoveryService tables/engine)
  kServeTelemetry = 7,   ///< serve/telemetry.* (access log + tracez ring)
  kJournal = 10,         ///< harness/journal.* (OutcomeJournal)
  kFaultInjection = 20,  ///< matchers/fault_injection.* attempt counters
  kArtifactStore = 25,   ///< io/artifact_store.* (persistent discovery store)
  kArtifactCache = 30,   ///< matchers/artifact_cache.*
  kPreparedSlot = 35,    ///< discovery/repository.* (entry's prepared artifact)
  kMetrics = 60,         ///< obs/metrics.* (MetricsRegistry)
  kTracer = 70,          ///< obs/trace.* (Tracer)
};

/// Human-readable rank name for diagnostics ("kMetrics", ...).
const char* LockRankName(LockRank rank);

/// What a violation report carries. Pointers identify the mutex
/// instances; names are the ones passed at Mutex construction.
struct LockRankViolation {
  enum class Kind {
    kSelfDeadlock,   ///< acquiring a mutex this thread already holds
    kRankInversion,  ///< acquiring rank <= a rank already held
  };
  Kind kind = Kind::kRankInversion;
  const void* acquiring = nullptr;
  LockRank acquiring_rank = LockRank::kUnranked;
  const char* acquiring_name = "";
  const void* held = nullptr;
  LockRank held_rank = LockRank::kUnranked;
  const char* held_name = "";
};

/// Handler invoked on a violation. The default (nullptr) prints the
/// report to stderr and aborts. Returns the previous handler. Intended
/// for tests; not synchronized with concurrent Check calls, so install
/// before spawning threads.
using LockRankViolationHandler = void (*)(const LockRankViolation&);
LockRankViolationHandler SetLockRankViolationHandler(
    LockRankViolationHandler handler);

/// \brief Per-thread registry of held mutexes (a thread_local stack).
///
/// valentine::Mutex drives this in debug builds; tests may drive it
/// directly in any build. All methods are static and touch only
/// thread-local state — no synchronization, no allocation.
class LockRankTracker {
 public:
  /// Validates acquiring (mutex, rank) against this thread's held set;
  /// reports via the violation handler. Does not record the mutex as
  /// held. Call before blocking on the underlying lock, so a
  /// self-deadlock is reported instead of hanging.
  static void CheckAcquire(const void* mutex, LockRank rank, const char* name);

  /// Records the mutex as held by this thread (post-acquisition).
  static void Acquired(const void* mutex, LockRank rank, const char* name);

  /// Removes the mutex from this thread's held set. Tolerates
  /// out-of-LIFO release and unknown mutexes (a tracker that aborts on
  /// bookkeeping noise would be worse than the bugs it hunts).
  static void Released(const void* mutex);

  /// Number of mutexes this thread currently holds (testing hook).
  static size_t HeldCount();
};

}  // namespace valentine

#endif  // VALENTINE_CORE_LOCK_RANK_H_
