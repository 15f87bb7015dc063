#ifndef VALENTINE_HARNESS_CAMPAIGN_H_
#define VALENTINE_HARNESS_CAMPAIGN_H_

/// \file campaign.h
/// Whole-campaign orchestration: the paper's Fig. 1 pipeline (fabricate
/// suites from source tables -> run every configuration of every method
/// family -> aggregate per scenario) as one library call, so embedders
/// and the benches share the same driver.

#include <string>
#include <vector>

#include "harness/parallel.h"
#include "harness/param_grid.h"
#include "harness/runner.h"

namespace valentine {

/// Campaign configuration.
struct CampaignOptions {
  PairSuiteOptions suite;
  /// Threads for the experiment runner (0 = hardware concurrency).
  size_t num_threads = 0;
  /// When non-empty, only families whose name appears here run.
  std::vector<std::string> family_filter;
  /// Per-experiment deadlines / retries / backoff (default: legacy
  /// behaviour — no budget, no retries).
  ExecutionPolicy policy;
  /// When non-empty, experiments are journaled to this JSONL path and
  /// a killed campaign resumes from it: completed (family, pair,
  /// config) triples — including quarantined failures — are replayed,
  /// and the final report is byte-identical to an uninterrupted run
  /// (modulo wall-clock runtime fields).
  std::string journal_path;
  /// Work slicing for the thread pool: kConfig (the default) also
  /// parallelizes the grid inside each pair, so small suites with wide
  /// grids saturate the cores. Either value yields byte-identical
  /// reports.
  ParallelGranularity granularity = ParallelGranularity::kConfig;
  /// Share one prepared-table ArtifactCache — the campaign's only
  /// cache — across every family and configuration of the campaign:
  /// each (table, family, prepare-key) artifact is built once and all
  /// configurations sharing the key score against it. Reports are
  /// byte-identical either way (modulo wall-clock runtime fields and the
  /// cache-stats diagnostics).
  bool use_artifact_cache = true;
  /// Observability (obs/), all optional and borrowed. `clock` is the
  /// timing source for every runtime measurement in the campaign
  /// (inject a FakeClock for byte-reproducible reports); `tracer`
  /// receives the campaign/family/experiment/attempt/prepare/score span
  /// tree; `metrics` receives the campaign's counters and histograms
  /// (merged in at the end, so one registry can span campaigns without
  /// double-counting). The report is byte-identical with or without
  /// them.
  const Clock* clock = nullptr;
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// Aggregated results of one family over the campaign suite.
struct CampaignFamilyReport {
  std::string family;
  std::vector<ScenarioStats> by_scenario;
  double avg_runtime_ms = 0.0;
  std::vector<FamilyPairOutcome> outcomes;
  size_t failed_experiments = 0;  ///< terminal non-OK configurations
  size_t retry_attempts = 0;      ///< attempts beyond the first, summed
  /// Failure taxonomy over the whole family, sorted by code.
  std::vector<std::pair<StatusCode, size_t>> failure_taxonomy;
};

/// Full campaign output. Every field here is covered by the
/// byte-identity contract (parallel == sequential == resumed, tracing
/// on == off); interleaving-dependent diagnostics — cache hit/miss
/// splits, runtime histograms — live on the MetricsRegistry instead
/// (valentine_artifact_cache_*), the single exclusion point from that
/// contract.
struct CampaignReport {
  size_t num_pairs = 0;
  size_t num_configurations = 0;
  size_t num_experiments = 0;
  size_t failed_experiments = 0;
  std::vector<CampaignFamilyReport> families;
};

/// Fabricates the suite from every source table and runs the families.
CampaignReport RunCampaign(const std::vector<Table>& sources,
                           const std::vector<MethodFamily>& families,
                           const CampaignOptions& options = {});

/// Convenience: campaign over an already-fabricated suite.
CampaignReport RunCampaignOnSuite(const std::vector<DatasetPair>& suite,
                                  const std::vector<MethodFamily>& families,
                                  const CampaignOptions& options = {});

}  // namespace valentine

#endif  // VALENTINE_HARNESS_CAMPAIGN_H_
