#include "harness/campaign.h"

#include <algorithm>
#include <map>
#include <optional>

#include "harness/journal.h"

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
  // The campaign always aggregates into a fresh registry of its own,
  // merged into the caller's registry only at the end — so one
  // long-lived registry can span many campaigns without double-counting.
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
    // A campaign that cannot journal cannot resume: refuse to start it.
    if (Status opened = journal->status(); !opened.ok()) {
      CampaignReport failed;
      failed.status = std::move(opened);
      return failed;
    }
  }
  // One artifact cache for the whole campaign: each (table, family,
  // prepare-key) artifact and each pair's pair artifact is built once;
  // configurations that only sweep score-stage parameters share them.
  // Scoped to this call — artifacts borrow the suite's tables. Reports
  // are byte-identical to an uncached run (modulo wall-clock runtime
  // fields): Score accepts only its own family's same-key artifacts.
  ArtifactCache artifacts;
  std::vector<PairFingerprints> fingerprints;
  run.artifacts = &artifacts;

  CampaignReport report;
  report.num_pairs = suite.size();
  for (const MethodFamily& family : families) {
    if (!options.family_filter.empty() &&
        std::find(options.family_filter.begin(),
                  options.family_filter.end(),
                  family.name) == options.family_filter.end()) {
      continue;
    }
    if (run.fingerprints == nullptr) {
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
    fr.outcomes = RunFamilyOnSuite(family, suite, run, options.num_threads);
    fr.by_scenario = AggregateByScenario(fr.outcomes);
    fr.avg_runtime_ms = AverageRuntimeMsPerRun(fr.outcomes);
    // The outcomes' deterministic per-pair counts fold into the
    // family's taxonomy and are exported as labelled counters.
    std::map<StatusCode, size_t> taxonomy;
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
        taxonomy[code] += count;
        metrics
            .CounterFor("valentine_experiment_failures_total",
                        {{"family", family.name},
                         {"code", StatusCodeName(code)}})
            ->Increment(count);
      }
    }
    fr.failure_taxonomy.assign(taxonomy.begin(), taxonomy.end());
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
  for (const auto& [family, stats] : artifacts.StatsSnapshot()) {
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
  campaign_span.End();
  if (options.metrics != nullptr) options.metrics->MergeFrom(metrics);
  // A write that failed mid-run lost journal lines: the report stands,
  // but a resume would re-run what they recorded.
  if (journal.has_value()) report.status = journal->status();
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
