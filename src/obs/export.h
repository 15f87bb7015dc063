#ifndef VALENTINE_OBS_EXPORT_H_
#define VALENTINE_OBS_EXPORT_H_

/// \file export.h
/// Serializers for traces and metrics.
///
/// Two trace formats from the same `SpanRecord`s:
///  - Chrome trace-event JSON (`chrome://tracing` / Perfetto): complete
///    "X" events with microsecond timestamps. Thread ids are *virtual* —
///    each trace id gets a deterministic tid from its rank in the sorted
///    trace-id set — so the layout is stable across runs instead of
///    leaking OS thread ids.
///  - Compact JSONL: one object per span, sorted by (trace_id, seq).
///    Experiment spans carry the journal key as their trace_id, so this
///    file joins line-for-line with the crash-resume journal.
///
/// All serializers are pure functions of their input; under a FakeClock
/// their output is byte-reproducible (DESIGN.md §10).

#include <string>
#include <vector>

#include "core/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace valentine {

/// Escapes a string for embedding in a JSON string literal: quote,
/// backslash, \n, \r and \t get short escapes, other control bytes
/// \u00XX. The one escaper of the obs exporters, the harness's JSON
/// export and the journal (the harness depends on obs, not the reverse).
std::string JsonEscape(const std::string& text);

/// Chrome trace-event JSON ({"traceEvents":[...]}) from a span snapshot.
std::string ToChromeTraceJson(const std::vector<SpanRecord>& spans);

/// One JSON object per line, sorted by (trace_id, seq).
std::string ToTraceJsonl(const std::vector<SpanRecord>& spans);

/// Counter values as a JSON object (machine-readable companion to the
/// Prometheus text form, which also carries gauges and histograms).
std::string ToMetricsJson(const MetricsRegistry& metrics);

/// Writes `text` to `path`, creating/truncating it.
Status WriteTextFile(const std::string& text, const std::string& path);

}  // namespace valentine

#endif  // VALENTINE_OBS_EXPORT_H_
