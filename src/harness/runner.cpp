#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "core/rng.h"
#include "metrics/metrics.h"
#include "obs/opcount.h"

namespace valentine {

std::vector<DatasetPair> BuildFabricatedSuite(
    const Table& original, const PairSuiteOptions& options) {
  std::vector<DatasetPair> suite;
  uint64_t seed = options.seed;
  auto add = [&](FabricationOptions fab) {
    fab.seed = seed++;
    auto result = FabricateDatasetPair(original, fab);
    if (result.ok()) suite.push_back(std::move(result).ValueOrDie());
  };
  std::vector<bool> schema_noise = {false};
  if (options.schema_noise_variants) schema_noise.push_back(true);
  std::vector<bool> instance_noise = {false};
  if (options.instance_noise_variants) instance_noise.push_back(true);

  // Unionable: row overlaps x schema noise x instance noise.
  for (double row : options.row_overlaps) {
    for (bool sn : schema_noise) {
      for (bool in : instance_noise) {
        FabricationOptions fab;
        fab.scenario = Scenario::kUnionable;
        fab.row_overlap = row;
        fab.noisy_schema = sn;
        fab.noisy_instances = in;
        add(fab);
      }
    }
  }
  // View-unionable: column overlaps x schema noise x instance noise.
  for (double col : options.column_overlaps) {
    for (bool sn : schema_noise) {
      for (bool in : instance_noise) {
        FabricationOptions fab;
        fab.scenario = Scenario::kViewUnionable;
        fab.column_overlap = col;
        fab.noisy_schema = sn;
        fab.noisy_instances = in;
        add(fab);
      }
    }
  }
  // Joinable: column overlaps x horizontal variant x schema noise
  // (instances always verbatim).
  for (double col : options.column_overlaps) {
    for (bool horiz : {false, true}) {
      for (bool sn : schema_noise) {
        FabricationOptions fab;
        fab.scenario = Scenario::kJoinable;
        fab.column_overlap = col;
        fab.joinable_horizontal_variant = horiz;
        fab.noisy_schema = sn;
        add(fab);
      }
    }
  }
  // Semantically-joinable: same grid, instances always noisy.
  for (double col : options.column_overlaps) {
    for (bool horiz : {false, true}) {
      for (bool sn : schema_noise) {
        FabricationOptions fab;
        fab.scenario = Scenario::kSemanticallyJoinable;
        fab.column_overlap = col;
        fab.joinable_horizontal_variant = horiz;
        fab.noisy_schema = sn;
        add(fab);
      }
    }
  }
  return suite;
}

bool IsRetryableStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInternal:
    case StatusCode::kIOError:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

double BackoffDelayMs(const ExecutionPolicy& policy, const std::string& key,
                      size_t attempt) {
  if (attempt == 0) return 0.0;
  double exp = policy.backoff_base_ms *
               std::pow(2.0, static_cast<double>(attempt - 1));
  double capped = std::min(policy.backoff_max_ms, exp);
  // Deterministic jitter in [0.5, 1): same (seed, key, attempt) always
  // yields the same delay, so schedules are reproducible in tests and
  // across resumed campaigns.
  Rng rng(policy.backoff_seed ^ DeterministicSeed(key) ^ attempt);
  return capped * (0.5 + 0.5 * rng.UniformDouble());
}

namespace {

/// Renders a double attribute value without trailing noise (for span
/// annotations like backoff delays).
std::string FormatMsAttr(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", ms);
  return buf;
}

/// Folds a thread-local kernel op-count delta into the registry under
/// `valentine_opcount_total{family,op}`. Counter adds are atomic and
/// order-independent, so parallel family runs aggregate
/// deterministically. No-op when counting is compiled out or the delta
/// is all zero — reports themselves never carry these numbers (the
/// registry is the single exclusion point from report byte-identity).
void SurfaceOpCounts(MetricsRegistry* metrics, const std::string& family,
                     const opcount::Snapshot& delta) {
  if (metrics == nullptr || !delta.AnyNonZero()) return;
  for (opcount::Op op : opcount::AllOps()) {
    uint64_t n = delta.value(op);
    if (n == 0) continue;
    metrics
        ->CounterFor("valentine_opcount_total",
                     {{"family", family}, {"op", opcount::OpName(op)}})
        ->Increment(n);
  }
}

/// Runs one configuration under the policy: a fresh per-attempt
/// deadline, bounded retries for transient codes, runtime accumulated
/// across attempts. Each attempt gets an "attempt" span under
/// `experiment_span`; retry waits are recorded as "backoff" point
/// events.
ExperimentResult RunExperimentWithPolicy(const ColumnMatcher& matcher,
                                         const std::string& config,
                                         const DatasetPair& pair,
                                         const std::string& family_name,
                                         const FamilyRunContext& run,
                                         uint64_t experiment_span,
                                         const PreparedTable* prepared_source,
                                         const PreparedTable* prepared_target,
                                         const PreparedPair* prepared_pair) {
  const ExecutionPolicy& policy = run.policy;
  const std::string key = JournalKey(family_name, pair.id, config);
  const size_t max_attempts = std::max<size_t>(1, policy.max_attempts);
  ExperimentResult result;
  double total_runtime_ms = 0.0;
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    SpanScope attempt_span(run.tracer, key, "attempt",
                           "attempt " + std::to_string(attempt),
                           experiment_span);
    attempt_span.Attr("attempt", std::to_string(attempt));
    MatchContext context;
    if (policy.budget_ms > 0.0) {
      context.deadline = Deadline::AfterMs(policy.budget_ms);
    }
    context.cancel = policy.cancel;
    context.trace_id = key;
    context.clock = run.clock;
    context.tracer = run.tracer;
    context.parent_span = attempt_span.id() != 0 ? attempt_span.id()
                                                 : experiment_span;
    // Kernel op counts for this attempt, attributed to the family. The
    // snapshots bracket the matcher call on the thread that runs it, so
    // thread-local deltas are exact even under the parallel runner.
    opcount::Snapshot ops_before = opcount::ThreadSnapshot();
    result = RunExperiment(matcher, config, pair, context, prepared_source,
                           prepared_target, prepared_pair);
    SurfaceOpCounts(run.metrics, family_name,
                    opcount::ThreadSnapshot().DeltaSince(ops_before));
    total_runtime_ms += result.runtime_ms;
    result.attempts = attempt;
    attempt_span.Attr("code", StatusCodeName(result.code));
    attempt_span.End();
    if (result.code == StatusCode::kOk ||
        !IsRetryableStatus(Status::WithCode(result.code, result.error)) ||
        attempt == max_attempts) {
      break;
    }
    double delay_ms = BackoffDelayMs(policy, key, attempt);
    if (run.tracer != nullptr) {
      run.tracer->RecordEvent(key, "backoff", "backoff", experiment_span,
                              {{"delay_ms", FormatMsAttr(delay_ms)}});
    }
    if (policy.backoff_wait) policy.backoff_wait(delay_ms);
  }
  result.runtime_ms = total_runtime_ms;
  return result;
}

ExperimentResult ReplayJournalEntry(const JournalEntry& entry,
                                    const ColumnMatcher& matcher,
                                    const DatasetPair& pair) {
  ExperimentResult result;
  result.pair_id = entry.pair_id;
  result.scenario = pair.scenario;
  result.method = matcher.Name();
  result.config = entry.config;
  result.recall_at_gt = entry.recall_at_gt;
  result.map = entry.map;
  result.runtime_ms = entry.runtime_ms;
  result.ground_truth_size = pair.ground_truth.size();
  result.code = entry.code;
  result.error = entry.error;
  result.attempts = entry.attempts;
  return result;
}

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

}  // namespace

PairFingerprints FingerprintPair(const DatasetPair& pair) {
  return {TableContentFingerprint(pair.source),
          TableContentFingerprint(pair.target)};
}

ExperimentResult RunConfigOnPair(const MethodFamily& family,
                                 size_t config_index, const DatasetPair& pair,
                                 const PairFingerprints* fingerprints,
                                 const FamilyRunContext& run) {
  const ConfiguredMatcher& cm = family.grid[config_index];
  const std::string key = JournalKey(family.name, pair.id, cm.description);
  // The experiment span's trace id IS the journal key, so traces join
  // line-for-line with the crash-resume journal.
  SpanScope experiment_span(run.tracer, key, "experiment", key,
                            run.parent_span);
  experiment_span.Attr("family", family.name);
  experiment_span.Attr("pair", pair.id);
  experiment_span.Attr("config", cm.description);
  const JournalEntry* done =
      run.completed == nullptr
          ? nullptr
          : run.completed->Find(family.name, pair.id, cm.description);
  if (done != nullptr) {
    // Crash resume: replay the journaled outcome (including
    // quarantined failures — they are never re-attempted).
    experiment_span.Attr("replayed", "true");
    experiment_span.Attr("code", StatusCodeName(done->code));
    if (run.metrics != nullptr) {
      run.metrics
          ->CounterFor("valentine_experiments_replayed_total",
                       {{"family", family.name}})
          ->Increment();
    }
    return ReplayJournalEntry(*done, *cm.matcher, pair);
  }
  // Resolve shared prepared artifacts (built once per (table, family,
  // prepare-key) across configurations and threads), then the pair's
  // (once per (pair, family, prepare-key)). Prepare and PreparePair run
  // under the policy's cancellation token but outside the per-attempt
  // deadline; a null table artifact (failed Prepare) degrades to the
  // monolithic path so the failure is reported per-configuration as
  // before, and a null pair artifact (no pair stage, failed build) to
  // Score building the pair work inline.
  PreparedTablePtr prepared_source, prepared_target;
  PreparedPairPtr prepared_pair;
  if (run.artifacts != nullptr) {
    assert(fingerprints != nullptr);
    MatchContext prepare_context;
    prepare_context.cancel = run.policy.cancel;
    prepare_context.trace_id = key + "#prepare";
    prepare_context.clock = run.clock;
    prepare_context.tracer = run.tracer;
    prepare_context.parent_span = experiment_span.id();
    prepared_source = run.artifacts->GetOrPrepare(
        *cm.matcher, pair.source, fingerprints->source, prepare_context);
    prepared_target = run.artifacts->GetOrPrepare(
        *cm.matcher, pair.target, fingerprints->target, prepare_context);
    if (prepared_source != nullptr && prepared_target != nullptr) {
      prepared_pair = run.artifacts->GetOrPreparePair(
          *cm.matcher, *prepared_source, fingerprints->source,
          *prepared_target, fingerprints->target, prepare_context);
    }
  }
  ExperimentResult r = RunExperimentWithPolicy(
      *cm.matcher, cm.description, pair, family.name, run,
      experiment_span.id(), prepared_source.get(), prepared_target.get(),
      prepared_pair.get());
  experiment_span.Attr("code", StatusCodeName(r.code));
  experiment_span.Attr("attempts", std::to_string(r.attempts));
  if (run.metrics != nullptr) {
    run.metrics
        ->CounterFor("valentine_experiments_total", {{"family", family.name}})
        ->Increment();
    Histogram* runtime = run.metrics->HistogramFor(
        "valentine_experiment_runtime_ms", {{"family", family.name}});
    if (runtime != nullptr) runtime->Observe(r.runtime_ms);
  }
  if (run.journal != nullptr) {
    run.journal->Append({family.name, pair.id, cm.description, r.code,
                         r.error, r.recall_at_gt, r.map, r.runtime_ms,
                         r.attempts});
  }
  return r;
}

FamilyPairOutcome ReducePairOutcome(
    const MethodFamily& family, const DatasetPair& pair,
    const std::vector<ExperimentResult>& results) {
  FamilyPairOutcome out;
  out.family = family.name;
  out.pair_id = pair.id;
  out.scenario = pair.scenario;
  std::map<StatusCode, size_t> failures;
  for (size_t c = 0; c < results.size(); ++c) {
    const ExperimentResult& r = results[c];
    out.total_ms += r.runtime_ms;
    ++out.runs;
    out.retries += r.attempts - 1;
    if (r.code == StatusCode::kOk) {
      // Only successful runs compete for best-of-grid; a failed config
      // must not claim the tie-break slot a successful one would get.
      if (r.recall_at_gt > out.best_recall || out.best_config.empty()) {
        out.best_recall = r.recall_at_gt;
        out.best_config = family.grid[c].description;
      }
    } else {
      ++out.failed_runs;
      ++failures[r.code];
    }
  }
  out.failure_counts.assign(failures.begin(), failures.end());
  return out;
}

FamilyPairOutcome RunFamilyOnPair(const MethodFamily& family,
                                  const DatasetPair& pair,
                                  const FamilyRunContext& run) {
  const PairFingerprints fingerprints =
      run.artifacts != nullptr ? FingerprintPair(pair) : PairFingerprints{};
  std::vector<ExperimentResult> results;
  results.reserve(family.grid.size());
  for (size_t c = 0; c < family.grid.size(); ++c) {
    results.push_back(RunConfigOnPair(family, c, pair, &fingerprints, run));
  }
  return ReducePairOutcome(family, pair, results);
}

std::vector<PairFingerprints> FingerprintSuite(
    const std::vector<DatasetPair>& suite, size_t num_threads) {
  std::vector<PairFingerprints> fingerprints(suite.size());
  ParallelFor(suite.size(), ResolveThreads(num_threads),
              [&](size_t i) { fingerprints[i] = FingerprintPair(suite[i]); });
  return fingerprints;
}

std::vector<FamilyPairOutcome> RunFamilyOnSuite(
    const MethodFamily& family, const std::vector<DatasetPair>& suite,
    const FamilyRunContext& run, size_t num_threads) {
  num_threads = ResolveThreads(num_threads);
  // The suite's fingerprints, computed here only when the caller has
  // none: every configuration of a pair reads the same two.
  const std::vector<PairFingerprints>* fingerprints = run.fingerprints;
  std::vector<PairFingerprints> own_fingerprints;
  if (run.artifacts != nullptr && fingerprints == nullptr) {
    own_fingerprints = FingerprintSuite(suite, num_threads);
    fingerprints = &own_fingerprints;
  }
  assert(fingerprints == nullptr || fingerprints->size() == suite.size());
  const size_t num_configs = family.grid.size();
  const size_t num_pairs = suite.size();
  // Per-experiment results land at their (pair, config) slot; workers
  // share nothing else, so any interleaving produces the same matrix,
  // and the fold below walks it in deterministic order.
  std::vector<std::vector<ExperimentResult>> results(
      num_pairs, std::vector<ExperimentResult>(num_configs));
  ParallelFor(num_pairs * num_configs, num_threads, [&](size_t w) {
    const size_t config_index = w / num_pairs;
    const size_t pair_index = w % num_pairs;
    results[pair_index][config_index] = RunConfigOnPair(
        family, config_index, suite[pair_index],
        fingerprints != nullptr ? &(*fingerprints)[pair_index] : nullptr,
        run);
  });
  std::vector<FamilyPairOutcome> outcomes;
  outcomes.reserve(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) {
    outcomes.push_back(ReducePairOutcome(family, suite[i], results[i]));
  }
  return outcomes;
}

std::vector<ScenarioStats> AggregateByScenario(
    const std::vector<FamilyPairOutcome>& outcomes) {
  std::map<Scenario, std::vector<double>> buckets;
  for (const auto& o : outcomes) buckets[o.scenario].push_back(o.best_recall);
  std::vector<ScenarioStats> stats;
  for (auto& [scenario, recalls] : buckets) {
    stats.push_back({scenario, Summarize(std::move(recalls))});
  }
  return stats;
}

double AverageRuntimeMsPerRun(
    const std::vector<FamilyPairOutcome>& outcomes) {
  double total = 0.0;
  size_t runs = 0;
  for (const auto& o : outcomes) {
    total += o.total_ms;
    runs += o.runs;
  }
  return runs == 0 ? 0.0 : total / static_cast<double>(runs);
}

}  // namespace valentine
