#ifndef VALENTINE_HARNESS_PARALLEL_H_
#define VALENTINE_HARNESS_PARALLEL_H_

/// \file parallel.h
/// Multi-threaded experiment execution. The paper ran ~75K experiments
/// as batch jobs on two 80-core machines; this is the same
/// embarrassingly-parallel structure at library level: pairs are
/// distributed over a thread pool, outcomes land at their pair's index,
/// so results are byte-identical to the sequential runner.
///
/// ColumnMatcher::Match must be safe to call concurrently on one
/// instance (all built-in matchers are; the fault-injecting decorator
/// guards its attempt counts with a mutex).
///
/// The runner itself holds no valentine::Mutex: work distribution is a
/// single std::atomic<size_t> cursor (claim-by-fetch_add), and each
/// outcome is written to its pair's pre-sized slot, so there is no
/// shared mutable state for GUARDED_BY to name. Everything the workers
/// *call into* — caches, journal, metrics, tracer — locks through the
/// annotated layer (src/core/mutex.h, DESIGN.md §11), and those mutexes
/// are leaf-level by rank, so workers can never deadlock each other.

#include <cstddef>
#include <vector>

#include "harness/runner.h"

namespace valentine {

/// Runs the family over the suite with `num_threads` workers
/// (0 = hardware concurrency). Output order matches the suite order and
/// is identical to RunFamilyOnSuite's.
std::vector<FamilyPairOutcome> RunFamilyOnSuiteParallel(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    size_t num_threads = 0);

/// Fault-tolerant variant: per-experiment deadlines, retries, journal
/// replay/append (see FamilyRunContext). The journal is internally
/// synchronized, so workers append concurrently; line order in the
/// journal is nondeterministic but the resume index — and therefore
/// the report — is order-insensitive.
std::vector<FamilyPairOutcome> RunFamilyOnSuiteParallel(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    size_t num_threads, const FamilyRunContext& run);

/// How work is sliced across the thread pool.
enum class ParallelGranularity {
  /// One work item per dataset pair (the legacy slicing): cannot use
  /// more threads than there are pairs.
  kPair,
  /// One work item per (pair, grid configuration): a small suite with a
  /// wide grid still saturates every core. Per-config results land at
  /// their (pair, config) index and are folded with ReducePairOutcome
  /// in grid order, so the outcome vector is byte-identical to kPair's
  /// and to the sequential runner's.
  kConfig,
};

/// Granularity-selecting variant. kPair reproduces the 4-argument
/// overload exactly; kConfig additionally parallelizes inside each pair.
/// With an artifact cache and no fingerprints from the caller, the suite
/// is fingerprinted first, once, over the same workers.
std::vector<FamilyPairOutcome> RunFamilyOnSuiteParallel(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    size_t num_threads, const FamilyRunContext& run,
    ParallelGranularity granularity);

/// FingerprintPair of every pair, in suite order, over `num_threads`
/// workers (0 = hardware concurrency).
std::vector<PairFingerprints> FingerprintSuite(
    const std::vector<DatasetPair>& suite, size_t num_threads);

}  // namespace valentine

#endif  // VALENTINE_HARNESS_PARALLEL_H_
