#include "harness/json_export.h"

#include <cstdio>

namespace valentine {

namespace {
std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}
}  // namespace

std::string ToJson(const ExperimentResult& result) {
  std::string out = "{";
  out += "\"pair_id\":\"" + JsonEscape(result.pair_id) + "\",";
  out += "\"scenario\":\"" + std::string(ScenarioName(result.scenario)) +
         "\",";
  out += "\"method\":\"" + JsonEscape(result.method) + "\",";
  out += "\"config\":\"" + JsonEscape(result.config) + "\",";
  out += "\"recall_at_gt\":" + JsonNumber(result.recall_at_gt) + ",";
  out += "\"map\":" + JsonNumber(result.map) + ",";
  out += "\"runtime_ms\":" + JsonNumber(result.runtime_ms) + ",";
  out += "\"ground_truth_size\":" +
         std::to_string(result.ground_truth_size) + ",";
  out += "\"code\":\"" + std::string(StatusCodeName(result.code)) + "\",";
  out += "\"error\":\"" + JsonEscape(result.error) + "\",";
  out += "\"attempts\":" + std::to_string(result.attempts);
  out += "}";
  return out;
}

std::string ToJson(const std::vector<ExperimentResult>& results) {
  std::string out = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ",";
    out += ToJson(results[i]);
  }
  out += "]";
  return out;
}

std::string ToJson(const MatchResult& result) {
  std::string out = "[";
  for (size_t i = 0; i < result.size(); ++i) {
    if (i > 0) out += ",";
    const Match& m = result[i];
    out += "{\"source\":\"" + JsonEscape(m.source.ToString()) +
           "\",\"target\":\"" + JsonEscape(m.target.ToString()) +
           "\",\"score\":" + JsonNumber(m.score) + "}";
  }
  out += "]";
  return out;
}

namespace {

/// Failure taxonomy as a JSON object keyed by stable code name. The
/// input is sorted by code, so the serialization is deterministic.
std::string FailuresToJson(
    const std::vector<std::pair<StatusCode, size_t>>& failures) {
  std::string out = "{";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + std::string(StatusCodeName(failures[i].first)) +
           "\":" + std::to_string(failures[i].second);
  }
  out += "}";
  return out;
}

}  // namespace

std::string ToJson(const std::vector<FamilyPairOutcome>& outcomes) {
  std::string out = "[";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (i > 0) out += ",";
    const FamilyPairOutcome& o = outcomes[i];
    out += "{\"family\":\"" + JsonEscape(o.family) + "\",\"pair_id\":\"" +
           JsonEscape(o.pair_id) + "\",\"scenario\":\"" +
           ScenarioName(o.scenario) + "\",\"best_recall\":" +
           JsonNumber(o.best_recall) + ",\"best_config\":\"" +
           JsonEscape(o.best_config) + "\",\"total_ms\":" +
           JsonNumber(o.total_ms) + ",\"runs\":" + std::to_string(o.runs) +
           ",\"failed_runs\":" + std::to_string(o.failed_runs) +
           ",\"retries\":" + std::to_string(o.retries) +
           ",\"failures\":" + FailuresToJson(o.failure_counts) + "}";
  }
  out += "]";
  return out;
}

std::string ToJson(const CampaignFamilyReport& report) {
  std::string out = "{";
  out += "\"family\":\"" + JsonEscape(report.family) + "\",";
  out += "\"avg_runtime_ms\":" + JsonNumber(report.avg_runtime_ms) + ",";
  out += "\"failed_experiments\":" +
         std::to_string(report.failed_experiments) + ",";
  out += "\"retry_attempts\":" + std::to_string(report.retry_attempts) + ",";
  out += "\"failure_taxonomy\":" + FailuresToJson(report.failure_taxonomy) +
         ",";
  out += "\"by_scenario\":[";
  for (size_t i = 0; i < report.by_scenario.size(); ++i) {
    if (i > 0) out += ",";
    const ScenarioStats& s = report.by_scenario[i];
    out += "{\"scenario\":\"" + std::string(ScenarioName(s.scenario)) +
           "\",\"min\":" + JsonNumber(s.recall.min) +
           ",\"median\":" + JsonNumber(s.recall.median) +
           ",\"max\":" + JsonNumber(s.recall.max) +
           ",\"mean\":" + JsonNumber(s.recall.mean) +
           ",\"count\":" + std::to_string(s.recall.count) + "}";
  }
  out += "],";
  out += "\"outcomes\":" + ToJson(report.outcomes);
  out += "}";
  return out;
}

std::string ToJson(const CampaignReport& report) {
  std::string out = "{";
  out += "\"num_pairs\":" + std::to_string(report.num_pairs) + ",";
  out += "\"num_configurations\":" +
         std::to_string(report.num_configurations) + ",";
  out += "\"num_experiments\":" + std::to_string(report.num_experiments) +
         ",";
  out += "\"failed_experiments\":" +
         std::to_string(report.failed_experiments) + ",";
  out += "\"families\":[";
  for (size_t i = 0; i < report.families.size(); ++i) {
    if (i > 0) out += ",";
    out += ToJson(report.families[i]);
  }
  out += "]}";
  // Interleaving-dependent diagnostics (cache hit/miss splits, runtime
  // histograms) are deliberately absent: they live on the
  // MetricsRegistry and export via RenderPrometheusText/ToMetricsJson,
  // keeping this report inside the byte-identity contract.
  return out;
}

}  // namespace valentine
