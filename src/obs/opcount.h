#ifndef VALENTINE_OBS_OPCOUNT_H_
#define VALENTINE_OBS_OPCOUNT_H_

/// \file opcount.h
/// Zero-cost-when-disabled operation counters for the score-side hot
/// kernels (Levenshtein DP cells and bit-parallel steps, bag-bound
/// prefilter outcomes, MinHash hash evaluations, n-gram emissions, EMD
/// sweep iterations, refs and cells put in rank order).
///
/// The counters exist so the SIMD/cache-layout work planned for the
/// kernels (ROADMAP item 2) has an *algorithmic* regression fence in
/// addition to wall-clock timings: a rewrite that silently visits more
/// DP cells or loses a prefilter shows up as an exact op-count diff in
/// `tools/perf_gate` even on noisy CI hardware, where ns/op alone would
/// need a wide tolerance band.
///
/// Enablement is compile-time only, so the release hot paths carry no
/// branches, loads, or atomics for this layer:
///   - debug builds (no NDEBUG): always enabled;
///   - release builds: disabled unless VALENTINE_OPCOUNT=1 (the CMake
///     option VALENTINE_OPCOUNT adds the definition; the CI perf-gate
///     job builds Release with it ON).
/// When disabled every function below is an empty inline that constant
/// folds away. Instrumented kernels accumulate into plain locals and
/// call Add() once per kernel invocation (never per cell), so even the
/// enabled configuration perturbs timings by at most one thread-local
/// add per call.
///
/// Counters are thread-local: kernels touch a plain (non-atomic)
/// per-thread array, so instrumentation can never introduce contention
/// or alter cross-thread timing. Aggregation across threads is the
/// caller's job — the harness snapshots deltas around each experiment
/// on the worker thread that ran it and folds them into the
/// MetricsRegistry (`valentine_opcount_total{family,op}`), which is the
/// sanctioned exclusion point from report byte-identity. Counting has
/// no effect on any score or ranking byte.

#include <array>
#include <cstdint>
#include <string>

#if !defined(NDEBUG) || (defined(VALENTINE_OPCOUNT) && VALENTINE_OPCOUNT)
#define VALENTINE_OPCOUNT_ENABLED 1
#else
#define VALENTINE_OPCOUNT_ENABLED 0
#endif

namespace valentine {
namespace opcount {

/// Counted operations. Order is the canonical export order; names come
/// from OpName() and are stable identifiers used in BENCH_kernels.json
/// and metric labels — do not renumber.
enum class Op : int {
  kLevenshteinCells = 0,   ///< DP cells visited (full + banded kernels)
  kBagPrefilterHits = 1,   ///< folded bag bound pruned a pair
  kBagPrefilterMisses = 2, ///< folded bag bound passed a pair through
  kMinHashHashes = 3,      ///< per-(value, slot) hash evaluations
  kNGramEmissions = 4,     ///< character n-grams emitted
  kEmdSweepIterations = 5, ///< merged-support positions swept
  kLevenshteinBitParallelSteps = 6,  ///< text bytes the bit-parallel
                                     ///< Levenshtein kernel stepped
  kRankRefs = 7,           ///< column refs ranked by the ordering core
  kRankCells = 8,          ///< match cells sorted into rank order
};

inline constexpr int kNumOps = 9;

/// True when this translation unit was built with counting compiled in.
inline constexpr bool kEnabled = (VALENTINE_OPCOUNT_ENABLED == 1);

/// Stable snake_case name for an op (metric label / JSON key).
const char* OpName(Op op);

/// All ops in canonical (enum) order, for iteration by exporters.
const std::array<Op, kNumOps>& AllOps();

/// Value snapshot of every counter, comparable and subtractable.
struct Snapshot {
  std::array<uint64_t, kNumOps> counts{};

  uint64_t value(Op op) const {
    return counts[static_cast<size_t>(static_cast<int>(op))];
  }
  /// Per-op difference `*this - since` (callers pair snapshots taken on
  /// the same thread, so counts are monotone between them).
  Snapshot DeltaSince(const Snapshot& since) const {
    Snapshot d;
    for (size_t i = 0; i < counts.size(); ++i) {
      d.counts[i] = counts[i] - since.counts[i];
    }
    return d;
  }
  bool AnyNonZero() const {
    for (uint64_t v : counts) {
      if (v != 0) return true;
    }
    return false;
  }
};

#if VALENTINE_OPCOUNT_ENABLED

namespace internal {
/// Plain thread-local slots; no atomics, no false sharing with other
/// threads. C++17 inline variable so the header stays self-contained.
inline thread_local std::array<uint64_t, kNumOps> tls_counts{};
}  // namespace internal

inline void Add(Op op, uint64_t n) {
  internal::tls_counts[static_cast<size_t>(static_cast<int>(op))] += n;
}

inline Snapshot ThreadSnapshot() {
  Snapshot s;
  s.counts = internal::tls_counts;
  return s;
}

inline void ResetThread() { internal::tls_counts.fill(0); }

#else  // !VALENTINE_OPCOUNT_ENABLED

inline void Add(Op, uint64_t) {}
inline Snapshot ThreadSnapshot() { return Snapshot{}; }
inline void ResetThread() {}

#endif  // VALENTINE_OPCOUNT_ENABLED

}  // namespace opcount
}  // namespace valentine

#endif  // VALENTINE_OBS_OPCOUNT_H_
