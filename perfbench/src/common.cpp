#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/clock.h"
#include "serve/json.h"

namespace valentine {
namespace perfbench {

int64_t NowNs() { return SteadyClockTimingSource()->NowNanos(); }

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // An infinite sample (a failed request) must stay infinite rather
  // than turn into NaN through inf * 0.
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::string RenderResultLine(const RunResult& result) {
  serve::JsonValue metrics = serve::JsonValue::Object();
  for (const auto& [name, metric] : result.metrics) {
    serve::JsonValue m = serve::JsonValue::Object();
    m.Set("value", serve::JsonValue::Number(metric.value));
    m.Set("unit", serve::JsonValue::String(metric.unit));
    metrics.Set(name, std::move(m));
  }
  serve::JsonValue root = serve::JsonValue::Object();
  root.Set("correct", serve::JsonValue::Bool(result.correct));
  root.Set("attempted",
           serve::JsonValue::Number(static_cast<double>(result.attempted)));
  root.Set("failed",
           serve::JsonValue::Number(static_cast<double>(result.failed)));
  root.Set("metrics", std::move(metrics));
  return serve::WriteJson(root);
}

std::map<uint64_t, int64_t> SpanSelfTimesNs(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.span_id] = &s;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0 && by_id.count(s.parent_id) != 0) {
      children[s.parent_id].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<uint64_t, int64_t> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_start = 0, cur_end = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
        } else {
          if (open) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
          open = true;
        }
      }
      if (open) covered += cur_end - cur_start;
    }
    self[s.span_id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<PromSample> ParsePrometheusText(const std::string& text) {
  std::vector<PromSample> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    PromSample sample;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    sample.name = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        size_t eq = line.find('=', i);
        if (eq == std::string::npos || eq + 1 >= line.size()) break;
        std::string key = line.substr(i, eq - i);
        size_t j = eq + 2;  // skip ="
        std::string value;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) ++j;
          value.push_back(line[j]);
          ++j;
        }
        sample.labels[key] = value;
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      ++i;  // '}'
    }
    sample.value = std::strtod(line.c_str() + std::min(i, line.size()), nullptr);
    out.push_back(std::move(sample));
  }
  return out;
}

double PromSum(const std::vector<PromSample>& samples, const std::string& name,
               const std::map<std::string, std::string>& match) {
  double total = 0.0;
  for (const PromSample& s : samples) {
    if (s.name != name) continue;
    bool ok = true;
    for (const auto& [k, v] : match) {
      auto it = s.labels.find(k);
      if (it == s.labels.end() || it->second != v) {
        ok = false;
        break;
      }
    }
    if (ok) total += s.value;
  }
  return total;
}

double PromHistogramQuantile(const std::vector<PromSample>& samples,
                             const std::string& name, double q) {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  for (const PromSample& s : samples) {
    if (s.name != name + "_bucket") continue;
    auto it = s.labels.find("le");
    if (it == s.labels.end()) continue;
    const double le = it->second == "+Inf" ? INFINITY
                                           : std::strtod(it->second.c_str(),
                                                         nullptr);
    buckets.push_back({le, s.value});
  }
  std::sort(buckets.begin(), buckets.end());
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double rank = q * buckets.back().second;
  double prev_le = 0.0, prev_count = 0.0;
  for (const auto& [le, count] : buckets) {
    if (count >= rank) {
      if (std::isinf(le)) return prev_le;
      const double in_bucket = count - prev_count;
      if (in_bucket <= 0.0) return le;
      return prev_le + (le - prev_le) * (rank - prev_count) / in_bucket;
    }
    prev_le = le;
    prev_count = count;
  }
  return prev_le;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
}  // namespace valentine
