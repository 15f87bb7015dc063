// End-to-end observability contract over a real campaign (DESIGN.md
// §10): the span tree covers campaign → family → experiment → attempt →
// prepare/score with cache builds and backoff events hanging off it;
// under a FakeClock single-threaded runs serialize byte-identically,
// and the canonical report is byte-identical with tracing on or off.
// On the tsan label list so a threaded traced run soaks the Tracer and
// MetricsRegistry under contention.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/campaign.h"
#include "harness/journal.h"
#include "harness/json_export.h"
#include "matchers/fault_injection.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace valentine {
namespace {

std::vector<DatasetPair> SmallSuite() {
  Table original = MakeTpcdiProspect(25, 99);
  PairSuiteOptions opt;
  opt.row_overlaps = {0.5};
  opt.column_overlaps = {0.5};
  opt.schema_noise_variants = false;
  opt.instance_noise_variants = false;
  return BuildFabricatedSuite(original, opt);
}

MethodFamily SmallFamily() {
  MethodFamily family = JaccardLevenshteinFamily();
  family.grid.resize(2);
  return family;
}

MethodFamily FlakyFamily(size_t fail_first) {
  FaultPlan plan;
  plan.fail_first = fail_first;
  MethodFamily base = SmallFamily();
  MethodFamily wrapped{base.name, {}};
  for (const ConfiguredMatcher& cm : base.grid) {
    wrapped.grid.push_back(
        {cm.description,
         std::make_shared<FaultInjectingMatcher>(cm.matcher, plan)});
  }
  return wrapped;
}

struct TracedRun {
  CampaignReport report;
  std::string chrome;
  std::string jsonl;
  std::string prometheus;
  std::vector<SpanRecord> spans;
};

TracedRun RunTraced(const std::vector<MethodFamily>& families,
                    size_t num_threads, size_t max_attempts = 1) {
  FakeClock clock;
  Tracer tracer(&clock);
  MetricsRegistry metrics;
  CampaignOptions options;
  options.num_threads = num_threads;
  options.policy.max_attempts = max_attempts;
  options.policy.backoff_wait = [](double) {};  // no real sleeping
  options.clock = &clock;
  options.tracer = &tracer;
  options.metrics = &metrics;
  TracedRun out;
  out.report = RunCampaignOnSuite(SmallSuite(), families, options);
  out.spans = tracer.Snapshot();
  out.chrome = ToChromeTraceJson(out.spans);
  out.jsonl = ToTraceJsonl(out.spans);
  out.prometheus = metrics.RenderPrometheusText();
  return out;
}

TEST(CampaignTraceTest, SpanTaxonomyCoversEveryStage) {
  TracedRun run = RunTraced({SmallFamily()}, /*num_threads=*/1);

  std::set<std::string> kinds;
  for (const SpanRecord& span : run.spans) kinds.insert(span.kind);
  // The acceptance bar is >= 5 distinct kinds; a cached campaign
  // produces seven.
  for (const char* kind : {"campaign", "family", "experiment", "attempt",
                           "prepare", "score", "cache-build"}) {
    EXPECT_EQ(kinds.count(kind), 1u) << "missing span kind " << kind;
  }
  EXPECT_GE(kinds.size(), 5u);
}

TEST(CampaignTraceTest, ParentageChainsFromCampaignToScore) {
  TracedRun run = RunTraced({SmallFamily()}, /*num_threads=*/1);

  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : run.spans) by_id[span.span_id] = &span;

  auto parent_kind = [&](const SpanRecord& span) -> std::string {
    auto it = by_id.find(span.parent_id);
    return it == by_id.end() ? "" : it->second->kind;
  };

  size_t scores = 0;
  for (const SpanRecord& span : run.spans) {
    if (span.kind == "campaign") {
      EXPECT_EQ(span.parent_id, 0u);
    } else if (span.kind == "family") {
      EXPECT_EQ(parent_kind(span), "campaign");
    } else if (span.kind == "experiment") {
      EXPECT_EQ(parent_kind(span), "family");
    } else if (span.kind == "attempt") {
      EXPECT_EQ(parent_kind(span), "experiment");
    } else if (span.kind == "score") {
      ++scores;
      EXPECT_EQ(parent_kind(span), "attempt");
    } else if (span.kind == "prepare") {
      // Artifact-cache prepares hang off their cache-build span.
      EXPECT_EQ(parent_kind(span), "cache-build");
    }
  }
  EXPECT_GT(scores, 0u);
}

TEST(CampaignTraceTest, ExperimentTraceIdsAreJournalKeys) {
  std::vector<MethodFamily> families = {SmallFamily()};
  TracedRun run = RunTraced(families, /*num_threads=*/1);

  std::set<std::string> expected;
  for (const DatasetPair& pair : SmallSuite()) {
    for (const ConfiguredMatcher& cm : families[0].grid) {
      expected.insert(JournalKey(families[0].name, pair.id, cm.description));
    }
  }
  std::set<std::string> actual;
  for (const SpanRecord& span : run.spans) {
    if (span.kind == "experiment") actual.insert(span.trace_id);
  }
  EXPECT_EQ(actual, expected);
}

TEST(CampaignTraceTest, FakeClockRunsAreByteIdentical) {
  TracedRun first = RunTraced({SmallFamily()}, /*num_threads=*/1);
  TracedRun second = RunTraced({SmallFamily()}, /*num_threads=*/1);
  EXPECT_EQ(first.chrome, second.chrome);
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.prometheus, second.prometheus);
  EXPECT_EQ(ToJson(first.report), ToJson(second.report));
  // The exported Chrome trace parses as one JSON document.
  EXPECT_TRUE(serve::ParseJson(first.chrome).ok());
}

TEST(CampaignTraceTest, ReportIsByteIdenticalWithTracingOnOrOff) {
  FakeClock clock;
  CampaignOptions off;
  off.num_threads = 1;
  off.clock = &clock;
  const std::string untraced =
      ToJson(RunCampaignOnSuite(SmallSuite(), {SmallFamily()}, off));

  TracedRun traced = RunTraced({SmallFamily()}, /*num_threads=*/1);
  EXPECT_EQ(ToJson(traced.report), untraced);
  // The report never carries cache diagnostics — those live only on the
  // metrics registry (the single exclusion point).
  EXPECT_EQ(untraced.find("artifact_cache"), std::string::npos);
}

TEST(CampaignTraceTest, RetriesProduceAttemptSpansAndBackoffEvents) {
  TracedRun run =
      RunTraced({FlakyFamily(/*fail_first=*/1)}, /*num_threads=*/1,
                /*max_attempts=*/3);

  // Every experiment fails once then succeeds: two attempt spans per
  // experiment and one backoff event between them.
  std::map<std::string, size_t> attempts_by_trace;
  std::map<std::string, size_t> backoffs_by_trace;
  for (const SpanRecord& span : run.spans) {
    if (span.kind == "attempt") ++attempts_by_trace[span.trace_id];
    if (span.kind == "backoff") {
      ++backoffs_by_trace[span.trace_id];
      ASSERT_FALSE(span.attributes.empty());
      EXPECT_EQ(span.attributes[0].first, "delay_ms");
      EXPECT_NE(span.attributes[0].second, "0");
    }
  }
  ASSERT_FALSE(attempts_by_trace.empty());
  for (const auto& [trace_id, count] : attempts_by_trace) {
    EXPECT_EQ(count, 2u) << trace_id;
    EXPECT_EQ(backoffs_by_trace[trace_id], 1u) << trace_id;
  }

  // Attempt spans carry per-attempt codes; the experiment span carries
  // the terminal code and attempt count.
  for (const SpanRecord& span : run.spans) {
    if (span.kind != "experiment") continue;
    std::map<std::string, std::string> attrs(span.attributes.begin(),
                                             span.attributes.end());
    EXPECT_EQ(attrs["code"], "OK") << span.trace_id;
    EXPECT_EQ(attrs["attempts"], "2") << span.trace_id;
  }

  // Retry metrics line up with the report.
  EXPECT_EQ(run.report.families[0].retry_attempts,
            run.report.num_experiments);
  EXPECT_NE(run.prometheus.find("valentine_experiment_retries_total{family="),
            std::string::npos);
}

TEST(CampaignTraceTest, MetricsCountersMatchReportOutcomes) {
  FakeClock clock;
  MetricsRegistry metrics;
  CampaignOptions options;
  options.num_threads = 1;
  options.clock = &clock;
  options.metrics = &metrics;
  std::vector<MethodFamily> families = {SmallFamily()};
  CampaignReport report =
      RunCampaignOnSuite(SmallSuite(), families, options);

  const MetricLabels labels = {{"family", families[0].name}};
  EXPECT_EQ(metrics.CounterValue("valentine_experiments_total", labels),
            report.num_experiments);
  EXPECT_EQ(
      metrics.CounterValue("valentine_experiments_replayed_total", labels),
      0u);
  // Source + target per pair, each prepared once: the grid shares one
  // prepare key. The cache labels series by matcher Name().
  EXPECT_EQ(metrics.CounterValue(
                "valentine_artifact_cache_builds_total",
                {{"family", families[0].grid[0].matcher->Name()}}),
            2u * report.num_pairs);
  std::string text = metrics.RenderPrometheusText();
  EXPECT_NE(text.find("# HELP valentine_experiments_total"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE valentine_experiment_runtime_ms histogram"),
      std::string::npos);
  // Fake clock: every runtime observation is exactly 0 and lands in the
  // first bucket.
  EXPECT_NE(text.find("valentine_experiment_runtime_ms_count{family=\"" +
                      families[0].name + "\"} " +
                      std::to_string(report.num_experiments)),
            std::string::npos)
      << text;
}

// Threaded traced campaign (tsan coverage): the report still matches
// the single-threaded bytes, the span *set* is complete, and exports
// stay parseable — only byte-level trace stability is exempt (cache
// builds land on whichever thread loses the race).
TEST(CampaignTraceConcurrencyTest, ThreadedTracedRunKeepsReportIdentity) {
  TracedRun sequential = RunTraced({SmallFamily()}, /*num_threads=*/1);
  TracedRun threaded = RunTraced({SmallFamily()}, /*num_threads=*/4);
  EXPECT_EQ(ToJson(threaded.report), ToJson(sequential.report));

  std::set<std::string> experiment_traces;
  for (const SpanRecord& span : threaded.spans) {
    if (span.kind == "experiment") experiment_traces.insert(span.trace_id);
  }
  std::set<std::string> expected_traces;
  for (const SpanRecord& span : sequential.spans) {
    if (span.kind == "experiment") expected_traces.insert(span.trace_id);
  }
  EXPECT_EQ(experiment_traces, expected_traces);
  EXPECT_TRUE(serve::ParseJson(threaded.chrome).ok());
}

}  // namespace
}  // namespace valentine
