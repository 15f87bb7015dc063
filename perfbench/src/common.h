#ifndef VALENTINE_PERFBENCH_COMMON_H_
#define VALENTINE_PERFBENCH_COMMON_H_

// Shared plumbing for the perfbench workloads: the clock every timing
// is taken on, order statistics, span self times, Prometheus text
// parsing, and the result record each run prints last.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace valentine {
namespace perfbench {

/// Nanoseconds on the process steady clock — the same timeline the
/// serve telemetry stamps access-log entries and spans on, so client
/// and server timestamps can be compared directly.
int64_t NowNs();

double NsToMs(int64_t ns);

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last stdout line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable reasons `correct` went false (stderr only).
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Renders the single-line result object a run prints last on stdout.
std::string RenderResultLine(const RunResult& result);

/// Per-span self time: duration minus the union of its children's
/// intervals (clipped to the parent). Keyed by span id.
std::map<uint64_t, int64_t> SpanSelfTimesNs(
    const std::vector<SpanRecord>& spans);

/// One sample of a Prometheus text exposition.
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};
std::vector<PromSample> ParsePrometheusText(const std::string& text);

/// Sum of every sample named `name` whose labels include all of
/// `match`.
double PromSum(const std::vector<PromSample>& samples, const std::string& name,
               const std::map<std::string, std::string>& match = {});

/// Quantile estimate from a cumulative histogram `<name>_bucket`
/// series (linear within the bucket, as Prometheus'
/// histogram_quantile does). 0 when the histogram is empty.
double PromHistogramQuantile(const std::vector<PromSample>& samples,
                             const std::string& name, double q);

/// 64-bit FNV-1a, for content digests.
uint64_t Fnv1a(const std::string& bytes, uint64_t seed = 1469598103934665603ULL);

}  // namespace perfbench
}  // namespace valentine

#endif  // VALENTINE_PERFBENCH_COMMON_H_
