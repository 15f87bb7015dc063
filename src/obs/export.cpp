#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <set>

namespace valentine {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

/// Microseconds with fixed millinanosecond precision — Chrome's `ts`
/// unit. Fixed-format so output is byte-stable.
std::string MicrosFromNanos(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000 < 0 ? -(ns % 1000)
                                                     : ns % 1000));
  return buf;
}

/// Deterministic virtual tid per trace id: rank in the sorted trace-id
/// set, 1-based. Stable across runs, unlike OS thread ids.
std::map<std::string, int> VirtualTids(const std::vector<SpanRecord>& spans) {
  std::set<std::string> ids;
  for (const SpanRecord& span : spans) ids.insert(span.trace_id);
  std::map<std::string, int> tids;
  int next = 1;
  for (const std::string& id : ids) tids[id] = next++;
  return tids;
}

void AppendSpanArgs(const SpanRecord& span, std::string& out) {
  out += "\"trace_id\":\"" + JsonEscape(span.trace_id) + "\"";
  out += ",\"span_id\":\"" + std::to_string(span.span_id) + "\"";
  out += ",\"parent_id\":\"" + std::to_string(span.parent_id) + "\"";
  for (const auto& [key, value] : span.attributes) {
    out += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<SpanRecord>& spans) {
  std::map<std::string, int> tids = VirtualTids(spans);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(span.name) + "\"";
    out += ",\"cat\":\"" + JsonEscape(span.kind) + "\"";
    out += ",\"ph\":\"X\"";
    out += ",\"ts\":" + MicrosFromNanos(span.start_ns);
    out += ",\"dur\":" + MicrosFromNanos(span.end_ns - span.start_ns);
    out += ",\"pid\":1";
    out += ",\"tid\":" + std::to_string(tids[span.trace_id]);
    out += ",\"args\":{";
    AppendSpanArgs(span, out);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string ToTraceJsonl(const std::vector<SpanRecord>& spans) {
  std::string out;
  for (const SpanRecord& span : spans) {
    out += "{\"trace_id\":\"" + JsonEscape(span.trace_id) + "\"";
    out += ",\"span_id\":\"" + std::to_string(span.span_id) + "\"";
    out += ",\"parent_id\":\"" + std::to_string(span.parent_id) + "\"";
    out += ",\"kind\":\"" + JsonEscape(span.kind) + "\"";
    out += ",\"name\":\"" + JsonEscape(span.name) + "\"";
    out += ",\"seq\":" + std::to_string(span.seq);
    out += ",\"start_ns\":" + std::to_string(span.start_ns);
    out += ",\"end_ns\":" + std::to_string(span.end_ns);
    out += ",\"attributes\":{";
    bool first = true;
    for (const auto& [key, value] : span.attributes) {
      if (!first) out += ",";
      first = false;
      out.append("\"").append(JsonEscape(key)).append("\":\"");
      out.append(JsonEscape(value)).append("\"");
    }
    out += "}}\n";
  }
  return out;
}

std::string ToMetricsJson(const MetricsRegistry& metrics) {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const MetricsRegistry::CounterSample& sample :
       metrics.CounterSamples()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(sample.name) + "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [key, value] : sample.labels) {
      if (!first_label) out += ",";
      first_label = false;
      out.append("\"").append(JsonEscape(key)).append("\":\"");
      out.append(JsonEscape(value)).append("\"");
    }
    out += "},\"value\":" + std::to_string(sample.value) + "}";
  }
  out += "]}";
  return out;
}

Status WriteTextFile(const std::string& text, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  file.flush();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace valentine
