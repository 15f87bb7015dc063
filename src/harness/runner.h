#ifndef VALENTINE_HARNESS_RUNNER_H_
#define VALENTINE_HARNESS_RUNNER_H_

/// \file runner.h
/// Suite construction and batch execution (paper Fig. 1): fabricate the
/// dataset-pair suite from each source table, run every grid
/// configuration of every method family on every pair, and aggregate
/// Recall@|GT| per scenario (min / median / max, as in the box plots).

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/deadline.h"
#include "fabrication/fabricator.h"
#include "harness/experiment.h"
#include "harness/journal.h"
#include "harness/param_grid.h"
#include "matchers/artifact_cache.h"
#include "metrics/metrics.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace valentine {

/// Controls how many fabricated pairs a suite contains.
struct PairSuiteOptions {
  /// Row-overlap levels for unionable pairs.
  std::vector<double> row_overlaps = {0.3, 0.5, 0.8};
  /// Column-overlap levels for view-unionable / (semantically-)joinable.
  std::vector<double> column_overlaps = {0.3, 0.5, 0.8};
  /// Include noisy-schema variants.
  bool schema_noise_variants = true;
  /// Include noisy-instance variants (where the scenario allows).
  bool instance_noise_variants = true;
  uint64_t seed = 1;
};

/// Fabricates the full pair suite from one original table: all four
/// scenarios crossed with overlap levels and noise combinations
/// (the C++ analogue of the paper's 180-pairs-per-source suites).
std::vector<DatasetPair> BuildFabricatedSuite(const Table& original,
                                              const PairSuiteOptions& options);

/// Fault-tolerance knobs for experiment execution. The defaults are the
/// legacy behaviour: no budget, no retries, no journal.
struct ExecutionPolicy {
  /// Per-attempt wall-clock budget (ms); 0 disables the deadline.
  double budget_ms = 0.0;
  /// Total attempts per experiment (>= 1). Retries apply only to codes
  /// IsRetryableStatus accepts — a deadline overrun would just overrun
  /// again, so it is terminal.
  size_t max_attempts = 1;
  /// Exponential backoff: delay = min(max, base * 2^(attempt-1)),
  /// jittered deterministically from (seed, experiment key, attempt).
  double backoff_base_ms = 10.0;
  double backoff_max_ms = 1000.0;
  uint64_t backoff_seed = 42;
  /// Invoked with the computed delay before each retry. The default is
  /// a no-op: library code never sleeps (the delay stays observable and
  /// testable); embedders that talk to rate-limited backends can plug a
  /// real wait here.
  std::function<void(double delay_ms)> backoff_wait;
  /// Cooperative cancellation shared by every experiment.
  const CancellationToken* cancel = nullptr;
};

/// True for failures worth retrying (transient classes: kInternal,
/// kIOError, kResourceExhausted). Deterministic failures and budget
/// overruns are terminal.
bool IsRetryableStatus(const Status& status);

/// The backoff delay (ms) before retry number `attempt` (1-based count
/// of failures so far) of the experiment identified by `key`. Pure
/// function of (policy, key, attempt): campaign reruns compute the
/// identical schedule.
double BackoffDelayMs(const ExecutionPolicy& policy, const std::string& key,
                      size_t attempt);

/// Best-of-grid outcome of one method family on one pair (the paper's
/// grid search "operates each algorithm under optimal conditions").
struct FamilyPairOutcome {
  std::string family;
  std::string pair_id;
  Scenario scenario = Scenario::kUnionable;
  double best_recall = 0.0;
  std::string best_config;
  double total_ms = 0.0;    ///< summed over all grid configurations
  size_t runs = 0;
  size_t failed_runs = 0;   ///< configurations whose final status != kOk
  size_t retries = 0;       ///< extra attempts beyond the first, summed
  /// Failure taxonomy: (code, count) for every non-OK terminal status,
  /// sorted by code so serialization is deterministic.
  std::vector<std::pair<StatusCode, size_t>> failure_counts;
};

/// Content fingerprints (TableContentFingerprint) of a pair's two
/// tables: their identity in the ArtifactCache.
struct PairFingerprints {
  uint64_t source = 0;
  uint64_t target = 0;
};

/// Fingerprints both tables of the pair.
PairFingerprints FingerprintPair(const DatasetPair& pair);

/// Shared execution state for a family run: the policy plus optional
/// journal plumbing. `completed` entries are replayed instead of
/// executed (crash resume); finished experiments are appended to
/// `journal` when set. All pointers are borrowed.
struct FamilyRunContext {
  ExecutionPolicy policy;
  OutcomeJournal* journal = nullptr;
  const JournalIndex* completed = nullptr;
  /// Shared prepared-table artifact cache: when set, each (table,
  /// family, prepare-key) artifact is built once and every
  /// configuration sharing the key scores against it (Prepare runs
  /// outside the per-attempt deadline, under the policy's cancellation
  /// token only). Results are byte-identical with or without a cache —
  /// Score accepts only own-family same-key artifacts and re-prepares
  /// inline otherwise. A failed Prepare falls back to the monolithic
  /// path so the failure surfaces through the same status taxonomy.
  ArtifactCache* artifacts = nullptr;
  /// The suite's fingerprints, one per pair in suite order, read only
  /// when `artifacts` is set. RunCampaignOnSuite fingerprints its suite
  /// once and shares the vector across families; a RunFamilyOnSuite*
  /// call given none fingerprints its suite itself, once. Either way a
  /// suite of P pairs costs 2P fingerprints per call, however wide the
  /// grid and whatever the granularity.
  const std::vector<PairFingerprints>* fingerprints = nullptr;
  /// Observability (obs/): all optional, all borrowed. `clock` is the
  /// timing source for runtime measurements (nullptr = steady clock);
  /// `tracer` receives experiment/attempt/backoff/prepare/score spans;
  /// `metrics` receives valentine_experiment* counters and the runtime
  /// histogram. None of them changes any report field except the timing
  /// values a fake clock makes deterministic.
  const Clock* clock = nullptr;
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Enclosing span id (typically the family span) experiment spans
  /// parent onto; 0 = root.
  uint64_t parent_span = 0;
};

/// Runs one grid configuration of the family on the pair under the run
/// context: journaled results are replayed (crash resume), everything
/// else executes under the policy and is appended to the journal. This
/// is the parallel unit of ParallelGranularity::kConfig; it is safe to
/// call concurrently for distinct (pair, config) work items.
/// `fingerprints` are the pair's, for the artifact cache: required when
/// `run.artifacts` is set, unread otherwise.
ExperimentResult RunConfigOnPair(const MethodFamily& family,
                                 size_t config_index, const DatasetPair& pair,
                                 const PairFingerprints* fingerprints,
                                 const FamilyRunContext& run);

/// Deterministic fold of the per-configuration results (in grid order)
/// into the best-of-grid outcome. Pure function of its inputs, so any
/// execution order that lands results at their grid index reproduces
/// the sequential outcome bit-for-bit.
FamilyPairOutcome ReducePairOutcome(const MethodFamily& family,
                                    const DatasetPair& pair,
                                    const std::vector<ExperimentResult>& results);

/// Runs every configuration of the family on the pair; keeps the best
/// recall and accumulates runtime.
FamilyPairOutcome RunFamilyOnPair(const MethodFamily& family,
                                  const DatasetPair& pair);

/// Fault-tolerant variant: applies the policy's deadline/retry budget
/// per configuration, replays journaled results, and records failures
/// in the outcome's taxonomy instead of aborting. Failed configurations
/// never update best_recall/best_config. With an artifact cache, the
/// pair is fingerprinted once for the whole grid.
FamilyPairOutcome RunFamilyOnPair(const MethodFamily& family,
                                  const DatasetPair& pair,
                                  const FamilyRunContext& run);

/// The same grid run on fingerprints from the caller (see
/// RunConfigOnPair): every configuration in grid order, folded by
/// ReducePairOutcome. The unit of ParallelGranularity::kPair.
FamilyPairOutcome RunFamilyOnPair(const MethodFamily& family,
                                  const DatasetPair& pair,
                                  const PairFingerprints* fingerprints,
                                  const FamilyRunContext& run);

/// Runs the family over a whole suite.
std::vector<FamilyPairOutcome> RunFamilyOnSuite(
    const MethodFamily& family, const std::vector<DatasetPair>& suite);

/// Fault-tolerant suite run (see the pair-level overload).
std::vector<FamilyPairOutcome> RunFamilyOnSuite(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    const FamilyRunContext& run);

/// Per-scenario recall distribution of a batch of outcomes.
struct ScenarioStats {
  Scenario scenario = Scenario::kUnionable;
  Summary recall;
};
std::vector<ScenarioStats> AggregateByScenario(
    const std::vector<FamilyPairOutcome>& outcomes);

/// Mean per-configuration runtime (ms) across outcomes — the Table IV
/// quantity ("average runtime per experiment").
double AverageRuntimeMsPerRun(const std::vector<FamilyPairOutcome>& outcomes);

}  // namespace valentine

#endif  // VALENTINE_HARNESS_RUNNER_H_
