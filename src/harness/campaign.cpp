#include "harness/campaign.h"

#include <algorithm>
#include <map>
#include <optional>

#include "harness/journal.h"
#include "harness/parallel.h"

namespace valentine {

namespace {

/// Registers the # HELP strings once per campaign registry.
void RegisterHelp(MetricsRegistry& metrics) {
  metrics.SetHelp("valentine_experiments_total",
                  "Experiments executed (journal replays excluded).");
  metrics.SetHelp("valentine_experiments_replayed_total",
                  "Experiments replayed from the crash-resume journal.");
  metrics.SetHelp("valentine_experiment_failures_total",
                  "Terminal non-OK experiment outcomes by status code.");
  metrics.SetHelp("valentine_experiment_retries_total",
                  "Extra attempts beyond the first, summed.");
  metrics.SetHelp("valentine_experiment_runtime_ms",
                  "Per-experiment runtime (ms), summed over attempts.");
  metrics.SetHelp("valentine_artifact_cache_hits_total",
                  "Prepared-table artifact cache hits.");
  metrics.SetHelp("valentine_artifact_cache_misses_total",
                  "Prepared-table artifact cache misses.");
  metrics.SetHelp("valentine_artifact_cache_builds_total",
                  "Prepared-table artifact builds (including failed ones).");
}

}  // namespace

CampaignReport RunCampaignOnSuite(const std::vector<DatasetPair>& suite,
                                  const std::vector<MethodFamily>& families,
                                  const CampaignOptions& options) {
  // The campaign always aggregates into a fresh registry of its own:
  // the report's failure taxonomy is derived from it, and only at the
  // end is it merged into the caller's registry — so one long-lived
  // registry can span many campaigns without double-counting reports.
  MetricsRegistry metrics;
  RegisterHelp(metrics);
  SpanScope campaign_span(options.tracer, "campaign", "campaign", "campaign");

  // Journal plumbing: load the resume index first (so completed triples
  // are skipped), then open the same file for appending new outcomes.
  std::optional<JournalIndex> completed;
  std::optional<OutcomeJournal> journal;
  FamilyRunContext run;
  run.policy = options.policy;
  run.clock = options.clock;
  run.tracer = options.tracer;
  run.metrics = &metrics;
  if (!options.journal_path.empty()) {
    Result<JournalIndex> loaded = JournalIndex::Load(options.journal_path);
    if (loaded.ok()) {
      completed = std::move(loaded).ValueOrDie();
      run.completed = &*completed;
    }
    journal.emplace(options.journal_path);
    run.journal = &*journal;
  }
  // One artifact cache for the whole campaign: each (table, family,
  // prepare-key) artifact is built once; configurations that only sweep
  // score-stage parameters share it. Scoped to this call — artifacts
  // borrow the suite's tables.
  std::optional<ArtifactCache> artifacts;
  std::vector<PairFingerprints> fingerprints;
  if (options.use_artifact_cache) {
    artifacts.emplace();
    run.artifacts = &*artifacts;
  }

  CampaignReport report;
  report.num_pairs = suite.size();
  for (const MethodFamily& family : families) {
    if (!options.family_filter.empty() &&
        std::find(options.family_filter.begin(),
                  options.family_filter.end(),
                  family.name) == options.family_filter.end()) {
      continue;
    }
    if (run.artifacts != nullptr && run.fingerprints == nullptr) {
      // The cache's table identity, computed once for every family and
      // configuration of the call.
      fingerprints = FingerprintSuite(suite, options.num_threads);
      run.fingerprints = &fingerprints;
    }
    SpanScope family_span(options.tracer, "campaign", "family", family.name,
                          campaign_span.id());
    run.parent_span = family_span.id();
    report.num_configurations += family.grid.size();
    CampaignFamilyReport fr;
    fr.family = family.name;
    fr.outcomes = RunFamilyOnSuiteParallel(family, suite, options.num_threads,
                                           run, options.granularity);
    fr.by_scenario = AggregateByScenario(fr.outcomes);
    fr.avg_runtime_ms = AverageRuntimeMsPerRun(fr.outcomes);
    // Failures and retries flow through the registry: the outcomes'
    // deterministic per-pair counts are accumulated as labelled
    // counters, and the report's taxonomy is read back from them — the
    // registry is the source of truth, the report a deterministic view.
    for (const FamilyPairOutcome& o : fr.outcomes) {
      fr.failed_experiments += o.failed_runs;
      fr.retry_attempts += o.retries;
      if (o.retries > 0) {
        metrics
            .CounterFor("valentine_experiment_retries_total",
                        {{"family", family.name}})
            ->Increment(o.retries);
      }
      for (const auto& [code, count] : o.failure_counts) {
        metrics
            .CounterFor("valentine_experiment_failures_total",
                        {{"family", family.name},
                         {"code", StatusCodeName(code)}})
            ->Increment(count);
      }
    }
    for (const MetricsRegistry::CounterSample& sample :
         metrics.CounterSamples()) {
      if (sample.name != "valentine_experiment_failures_total") continue;
      std::string code_name, family_name;
      for (const auto& [key, value] : sample.labels) {
        if (key == "code") code_name = value;
        if (key == "family") family_name = value;
      }
      if (family_name != family.name) continue;
      std::optional<StatusCode> code = StatusCodeFromName(code_name);
      if (code.has_value()) {
        fr.failure_taxonomy.emplace_back(*code, sample.value);
      }
    }
    std::sort(fr.failure_taxonomy.begin(), fr.failure_taxonomy.end());
    family_span.Attr("pairs", std::to_string(suite.size()));
    family_span.Attr("configs", std::to_string(family.grid.size()));
    report.failed_experiments += fr.failed_experiments;
    report.num_experiments += family.grid.size() * suite.size();
    report.families.push_back(std::move(fr));
  }
  // Artifact-cache counters are interleaving-dependent (which thread
  // wins a build race varies), so they are exported only through the
  // registry — the single exclusion point from the report byte-identity
  // contract — never as report fields.
  if (artifacts.has_value()) {
    for (const auto& [family, stats] : artifacts->StatsSnapshot()) {
      metrics
          .CounterFor("valentine_artifact_cache_hits_total",
                      {{"family", family}})
          ->Increment(stats.hits);
      metrics
          .CounterFor("valentine_artifact_cache_misses_total",
                      {{"family", family}})
          ->Increment(stats.misses);
      metrics
          .CounterFor("valentine_artifact_cache_builds_total",
                      {{"family", family}})
          ->Increment(stats.builds);
    }
  }
  campaign_span.End();
  if (options.metrics != nullptr) options.metrics->MergeFrom(metrics);
  return report;
}

CampaignReport RunCampaign(const std::vector<Table>& sources,
                           const std::vector<MethodFamily>& families,
                           const CampaignOptions& options) {
  std::vector<DatasetPair> suite;
  uint64_t seed = options.suite.seed;
  for (const Table& source : sources) {
    PairSuiteOptions per_source = options.suite;
    per_source.seed = seed;
    seed += 1000;
    for (auto& pair : BuildFabricatedSuite(source, per_source)) {
      suite.push_back(std::move(pair));
    }
  }
  return RunCampaignOnSuite(suite, families, options);
}

}  // namespace valentine
