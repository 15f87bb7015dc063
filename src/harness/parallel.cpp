#include "harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <thread>

namespace valentine {

std::vector<FamilyPairOutcome> RunFamilyOnSuiteParallel(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    size_t num_threads) {
  return RunFamilyOnSuiteParallel(family, suite, num_threads,
                                  FamilyRunContext());
}

std::vector<FamilyPairOutcome> RunFamilyOnSuiteParallel(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    size_t num_threads, const FamilyRunContext& run) {
  return RunFamilyOnSuiteParallel(family, suite, num_threads, run,
                                  ParallelGranularity::kPair);
}

namespace {

size_t ResolveThreads(size_t num_threads) {
  return num_threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                          : num_threads;
}

/// Calls `item(i)` for every i < n over min(num_threads, n) workers that
/// claim indices from one atomic cursor; inline when that is one worker.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& item) {
  num_threads = std::min(num_threads, n);
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) item(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      item(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
}

/// Pair i's fingerprints, or nullptr when the run has no cache.
const PairFingerprints* PairFingerprintsOf(const FamilyRunContext& run,
                                           size_t i) {
  return run.fingerprints != nullptr ? &(*run.fingerprints)[i] : nullptr;
}

std::vector<FamilyPairOutcome> RunPairGranularity(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    size_t num_threads, const FamilyRunContext& run) {
  std::vector<FamilyPairOutcome> outcomes(suite.size());
  ParallelFor(suite.size(), num_threads, [&](size_t i) {
    outcomes[i] =
        RunFamilyOnPair(family, suite[i], PairFingerprintsOf(run, i), run);
  });
  return outcomes;
}

std::vector<FamilyPairOutcome> RunConfigGranularity(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    size_t num_threads, const FamilyRunContext& run) {
  const size_t num_configs = family.grid.size();
  // Per-experiment results land at their flattened (pair, config) index;
  // workers share nothing else, so any interleaving produces the same
  // matrix. The fold below walks it in deterministic order.
  std::vector<std::vector<ExperimentResult>> results(suite.size());
  for (auto& row : results) row.resize(num_configs);
  ParallelFor(suite.size() * num_configs, num_threads, [&](size_t w) {
    const size_t pair_index = w / num_configs;
    const size_t config_index = w % num_configs;
    results[pair_index][config_index] =
        RunConfigOnPair(family, config_index, suite[pair_index],
                        PairFingerprintsOf(run, pair_index), run);
  });

  std::vector<FamilyPairOutcome> outcomes;
  outcomes.reserve(suite.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    outcomes.push_back(ReducePairOutcome(family, suite[i], results[i]));
  }
  return outcomes;
}

}  // namespace

std::vector<PairFingerprints> FingerprintSuite(
    const std::vector<DatasetPair>& suite, size_t num_threads) {
  std::vector<PairFingerprints> fingerprints(suite.size());
  ParallelFor(suite.size(), ResolveThreads(num_threads),
              [&](size_t i) { fingerprints[i] = FingerprintPair(suite[i]); });
  return fingerprints;
}

std::vector<FamilyPairOutcome> RunFamilyOnSuiteParallel(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    size_t num_threads, const FamilyRunContext& run,
    ParallelGranularity granularity) {
  num_threads = ResolveThreads(num_threads);
  const size_t max_useful = granularity == ParallelGranularity::kConfig
                                ? suite.size() * family.grid.size()
                                : suite.size();
  num_threads = std::min(num_threads, max_useful);
  if (num_threads <= 1) return RunFamilyOnSuite(family, suite, run);
  // The suite's fingerprints, computed here only when the caller has
  // none: every configuration of a pair reads the same two.
  FamilyRunContext shared = run;
  std::vector<PairFingerprints> fingerprints;
  if (run.artifacts == nullptr) {
    shared.fingerprints = nullptr;
  } else if (run.fingerprints == nullptr) {
    fingerprints = FingerprintSuite(suite, num_threads);
    shared.fingerprints = &fingerprints;
  }
  assert(shared.fingerprints == nullptr ||
         shared.fingerprints->size() == suite.size());
  return granularity == ParallelGranularity::kConfig
             ? RunConfigGranularity(family, suite, num_threads, shared)
             : RunPairGranularity(family, suite, num_threads, shared);
}

}  // namespace valentine
