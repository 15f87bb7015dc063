#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "serve/json.h"

namespace valentine {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(5);
  EXPECT_EQ(c.value(), 6u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(HistogramTest, ObservationsLandInTheRightBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (le is inclusive)
  h.Observe(5.0);    // <= 10
  h.Observe(50.0);   // <= 100
  h.Observe(500.0);  // +Inf
  std::vector<uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 50.0 + 500.0);
}

TEST(HistogramTest, MergeAddsObservations) {
  Histogram a({1.0, 10.0});
  Histogram b({1.0, 10.0});
  a.Observe(0.5);
  b.Observe(5.0);
  b.Observe(20.0);
  a.MergeFrom(b);
  std::vector<uint64_t> buckets = a.bucket_counts();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 25.5);
}

TEST(MetricsRegistryTest, SeriesHandlesAreStableAndShared) {
  MetricsRegistry registry;
  Counter* c1 = registry.CounterFor("requests", {{"family", "JL"}});
  Counter* c2 = registry.CounterFor("requests", {{"family", "JL"}});
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);  // same series, same handle
  // Label insertion order must not matter: labels sort on registration.
  Counter* c3 =
      registry.CounterFor("multi", {{"b", "2"}, {"a", "1"}});
  Counter* c4 =
      registry.CounterFor("multi", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(c3, c4);
  c1->Increment(3);
  EXPECT_EQ(registry.CounterValue("requests", {{"family", "JL"}}), 3u);
  EXPECT_EQ(registry.CounterValue("requests", {{"family", "other"}}), 0u);
  EXPECT_EQ(registry.CounterValue("absent"), 0u);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.CounterFor("x"), nullptr);
  EXPECT_EQ(registry.GaugeFor("x"), nullptr);
  EXPECT_EQ(registry.HistogramFor("x"), nullptr);
  ASSERT_NE(registry.GaugeFor("y"), nullptr);
  EXPECT_EQ(registry.CounterFor("y"), nullptr);
}

TEST(MetricsRegistryTest, CounterSamplesAreSorted) {
  MetricsRegistry registry;
  registry.CounterFor("zeta")->Increment(1);
  registry.CounterFor("alpha", {{"k", "2"}})->Increment(2);
  registry.CounterFor("alpha", {{"k", "1"}})->Increment(3);
  registry.GaugeFor("gauge")->Set(9);  // not a counter: excluded

  std::vector<MetricsRegistry::CounterSample> samples =
      registry.CounterSamples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(samples[0].labels[0].second, "1");
  EXPECT_EQ(samples[0].value, 3u);
  EXPECT_EQ(samples[1].name, "alpha");
  EXPECT_EQ(samples[1].labels[0].second, "2");
  EXPECT_EQ(samples[2].name, "zeta");
}

TEST(MetricsRegistryTest, MergeAddsCountersOverwritesGauges) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.CounterFor("c")->Increment(2);
  b.CounterFor("c")->Increment(5);
  b.CounterFor("only_b", {{"l", "v"}})->Increment(1);
  a.GaugeFor("g")->Set(1.0);
  b.GaugeFor("g")->Set(7.5);
  a.HistogramFor("h", {}, {1.0, 10.0})->Observe(0.5);
  b.HistogramFor("h", {}, {1.0, 10.0})->Observe(5.0);
  b.SetHelp("c", "a counter");

  a.MergeFrom(b);
  EXPECT_EQ(a.CounterValue("c"), 7u);
  EXPECT_EQ(a.CounterValue("only_b", {{"l", "v"}}), 1u);
  EXPECT_EQ(a.GaugeFor("g")->value(), 7.5);
  EXPECT_EQ(a.HistogramFor("h", {}, {1.0, 10.0})->count(), 2u);
  EXPECT_NE(a.RenderPrometheusText().find("# HELP c a counter"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

TEST(PrometheusTextTest, GoldenRendering) {
  MetricsRegistry registry;
  registry.SetHelp("valentine_requests_total", "Requests processed.");
  registry.CounterFor("valentine_requests_total", {{"family", "JL"}})
      ->Increment(4);
  registry.CounterFor("valentine_requests_total", {{"family", "COMA"}})
      ->Increment(2);
  registry.GaugeFor("valentine_temperature")->Set(0.5);
  registry.HistogramFor("valentine_latency_ms", {}, {1.0, 10.0})->Observe(0.5);
  registry.HistogramFor("valentine_latency_ms", {}, {1.0, 10.0})->Observe(20.0);

  EXPECT_EQ(registry.RenderPrometheusText(),
            "# TYPE valentine_latency_ms histogram\n"
            "valentine_latency_ms_bucket{le=\"1\"} 1\n"
            "valentine_latency_ms_bucket{le=\"10\"} 1\n"
            "valentine_latency_ms_bucket{le=\"+Inf\"} 2\n"
            "valentine_latency_ms_sum 20.5\n"
            "valentine_latency_ms_count 2\n"
            "# HELP valentine_requests_total Requests processed.\n"
            "# TYPE valentine_requests_total counter\n"
            "valentine_requests_total{family=\"COMA\"} 2\n"
            "valentine_requests_total{family=\"JL\"} 4\n"
            "# TYPE valentine_temperature gauge\n"
            "valentine_temperature 0.5\n");
}

TEST(PrometheusTextTest, OutputIndependentOfRegistrationOrder) {
  MetricsRegistry forward;
  forward.CounterFor("a", {{"x", "1"}})->Increment(1);
  forward.CounterFor("b")->Increment(2);
  forward.CounterFor("a", {{"x", "2"}})->Increment(3);

  MetricsRegistry reverse;
  reverse.CounterFor("a", {{"x", "2"}})->Increment(3);
  reverse.CounterFor("b")->Increment(2);
  reverse.CounterFor("a", {{"x", "1"}})->Increment(1);

  EXPECT_EQ(forward.RenderPrometheusText(), reverse.RenderPrometheusText());
}

TEST(PrometheusTextTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.CounterFor("c", {{"k", "quote\" slash\\ nl\n"}})->Increment(1);
  std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("c{k=\"quote\\\" slash\\\\ nl\\n\"} 1"),
            std::string::npos)
      << text;
}

TEST(PrometheusTextTest, HostileValuesGolden) {
  // Every user-controlled string in one exposition: help text with
  // backslash + embedded newline, label values with quote, backslash,
  // and newline. The golden output stays a well-formed two-line-per-
  // series exposition — nothing splits a line.
  MetricsRegistry registry;
  registry.SetHelp("c", "path C:\\tmp\nsecond line");
  registry.CounterFor("c", {{"k", "a\"b\\c\nd"}})->Increment(1);
  EXPECT_EQ(registry.RenderPrometheusText(),
            "# HELP c path C:\\\\tmp\\nsecond line\n"
            "# TYPE c counter\n"
            "c{k=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(PrometheusTextTest, HelpTextKeepsQuotesRaw) {
  // The exposition format escapes only backslash and newline on HELP
  // lines; double quotes pass through untouched (unlike label values).
  MetricsRegistry registry;
  registry.SetHelp("g", "the \"effective\" rate");
  registry.GaugeFor("g")->Set(1.0);
  std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("# HELP g the \"effective\" rate\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusTextTest, DoublesRenderShortestRoundTrip) {
  // Bucket bounds and gauges render the way they were written: 0.1 is
  // le="0.1" (not the %.17g spelling 0.10000000000000001), integral
  // values stay plain ("10", never "1e+01").
  MetricsRegistry registry;
  registry.HistogramFor("lat", {}, {0.1, 10.0})->Observe(0.05);
  registry.GaugeFor("g")->Set(0.1);
  std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("lat_bucket{le=\"0.1\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_bucket{le=\"10\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_sum 0.05\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g 0.1\n"), std::string::npos) << text;
}

TEST(PrometheusTextTest, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.HistogramFor("lat", {{"family", "JL"}}, {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(0.7);
  h->Observe(5.0);
  std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("lat_bucket{family=\"JL\",le=\"1\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_bucket{family=\"JL\",le=\"10\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{family=\"JL\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lat_count{family=\"JL\"} 3"), std::string::npos);
}

TEST(MetricsJsonTest, CountersRoundTripThroughTheJsonParser) {
  MetricsRegistry registry;
  registry.CounterFor("valentine_experiments_total", {{"family", "JL"}})
      ->Increment(12);
  registry.CounterFor("plain")->Increment(1);
  std::string json = ToMetricsJson(registry);
  Result<serve::JsonValue> doc = serve::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << json;
  ASSERT_TRUE(doc->is_object());
}

// On the tsan label list: concurrent updates against shared handles and
// lazy series creation must be race-free.
TEST(MetricsRegistryConcurrencyTest, ParallelIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < kIters; ++i) {
        registry.CounterFor("shared")->Increment();
        registry.HistogramFor("hist", {}, {1.0, 10.0})
            ->Observe(i % 20 == 0 ? 5.0 : 0.5);
        registry.GaugeFor("gauge")->Set(static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.CounterValue("shared"),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.HistogramFor("hist", {}, {1.0, 10.0})->count(),
            static_cast<uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace valentine
