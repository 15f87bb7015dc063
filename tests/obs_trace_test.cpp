#include "obs/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/export.h"
#include "serve/json.h"

namespace valentine {
namespace {

TEST(DeriveSpanIdTest, DeterministicAndNeverZero) {
  EXPECT_EQ(DeriveSpanId("t", 0), DeriveSpanId("t", 0));
  EXPECT_EQ(DeriveSpanId("campaign", 17), DeriveSpanId("campaign", 17));
  EXPECT_NE(DeriveSpanId("t", 0), DeriveSpanId("t", 1));
  EXPECT_NE(DeriveSpanId("t", 0), DeriveSpanId("u", 0));
  for (uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_NE(DeriveSpanId("", seq), 0u) << seq;
    EXPECT_NE(DeriveSpanId("campaign", seq), 0u) << seq;
  }
}

// The separator byte keeps (trace_id, seq) unambiguous: a trace id that
// ends in a digit-like byte must not collide with a neighboring seq.
TEST(DeriveSpanIdTest, TraceIdBytesAndSeqAreNotConcatenated) {
  EXPECT_NE(DeriveSpanId("ab", 1), DeriveSpanId("a", 1));
  EXPECT_NE(DeriveSpanId(std::string("a\x01", 2), 0), DeriveSpanId("a", 1));
}

TEST(TracerTest, SpanIdsFollowPerTraceSequence) {
  FakeClock clock;
  Tracer tracer(&clock);
  uint64_t a0 = tracer.StartSpan("a", "k", "first");
  uint64_t b0 = tracer.StartSpan("b", "k", "other-trace");
  uint64_t a1 = tracer.StartSpan("a", "k", "second", a0);
  EXPECT_EQ(a0, DeriveSpanId("a", 0));
  EXPECT_EQ(a1, DeriveSpanId("a", 1));
  EXPECT_EQ(b0, DeriveSpanId("b", 0));  // per-trace counters independent
  tracer.EndSpan(a1);
  tracer.EndSpan(b0);
  tracer.EndSpan(a0);

  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Snapshot is sorted by (trace_id, seq) regardless of end order.
  EXPECT_EQ(spans[0].span_id, a0);
  EXPECT_EQ(spans[1].span_id, a1);
  EXPECT_EQ(spans[2].span_id, b0);
  EXPECT_EQ(spans[1].parent_id, a0);
  EXPECT_EQ(spans[0].parent_id, 0u);
}

TEST(TracerTest, AttributesStickOnlyWhileOpen) {
  FakeClock clock;
  Tracer tracer(&clock);
  uint64_t id = tracer.StartSpan("t", "k", "n");
  tracer.AddSpanAttribute(id, "alive", "yes");
  tracer.EndSpan(id);
  tracer.AddSpanAttribute(id, "dead", "ignored");
  tracer.AddSpanAttribute(0, "zero", "ignored");

  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attributes.size(), 1u);
  EXPECT_EQ(spans[0].attributes[0].first, "alive");
  EXPECT_EQ(spans[0].attributes[0].second, "yes");
}

TEST(TracerTest, TimestampsComeFromInjectedClock) {
  FakeClock clock(1000);
  Tracer tracer(&clock);
  uint64_t id = tracer.StartSpan("t", "k", "n");
  clock.AdvanceNanos(5000);
  tracer.EndSpan(id);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_ns, 1000);
  EXPECT_EQ(spans[0].end_ns, 6000);
}

TEST(TracerTest, RecordEventIsAClosedZeroDurationSpan) {
  FakeClock clock(7);
  Tracer tracer(&clock);
  uint64_t parent = tracer.StartSpan("t", "experiment", "e");
  uint64_t event =
      tracer.RecordEvent("t", "backoff", "backoff", parent,
                         {{"delay_ms", "12.5"}});
  EXPECT_NE(event, 0u);
  tracer.EndSpan(parent);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& ev = spans[1];
  EXPECT_EQ(ev.span_id, event);
  EXPECT_EQ(ev.parent_id, parent);
  EXPECT_EQ(ev.kind, "backoff");
  EXPECT_EQ(ev.start_ns, ev.end_ns);
  ASSERT_EQ(ev.attributes.size(), 1u);
  EXPECT_EQ(ev.attributes[0].second, "12.5");
}

TEST(SpanScopeTest, InertWhenTracerIsNull) {
  SpanScope scope(nullptr, "t", "k", "n");
  EXPECT_EQ(scope.id(), 0u);
  scope.Attr("ignored", "x");
  scope.End();  // must not crash
  SpanScope defaulted;
  EXPECT_EQ(defaulted.id(), 0u);
}

TEST(SpanScopeTest, EndsOnDestructionAndEndIsIdempotent) {
  FakeClock clock;
  Tracer tracer(&clock);
  {
    SpanScope scope(&tracer, "t", "k", "raii");
    EXPECT_NE(scope.id(), 0u);
    scope.Attr("key", "value");
  }
  EXPECT_EQ(tracer.size(), 1u);
  SpanScope manual(&tracer, "t", "k", "manual");
  uint64_t id = manual.id();
  manual.End();
  EXPECT_EQ(manual.id(), 0u);
  manual.End();  // second End is a no-op
  tracer.AddSpanAttribute(id, "late", "dropped");
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[1].attributes.empty());
}

TEST(SpanScopeTest, MoveTransfersOwnership) {
  FakeClock clock;
  Tracer tracer(&clock);
  SpanScope a(&tracer, "t", "k", "moved-from");
  uint64_t id = a.id();
  SpanScope b = std::move(a);
  EXPECT_EQ(a.id(), 0u);
  EXPECT_EQ(b.id(), id);
  SpanScope c(&tracer, "t", "k", "assigned-over");
  c = std::move(b);  // ends c's original span first
  EXPECT_EQ(c.id(), id);
  c.End();
  EXPECT_EQ(tracer.size(), 2u);
}

// ---------------------------------------------------------------------------
// Export formats.

std::vector<SpanRecord> SampleSpans() {
  FakeClock clock(0, 1000);  // 1µs per read: distinct, deterministic stamps
  Tracer tracer(&clock);
  uint64_t root = tracer.StartSpan("campaign", "campaign", "campaign");
  uint64_t fam = tracer.StartSpan("campaign", "family", "JL", root);
  uint64_t exp = tracer.StartSpan("JL\x1fpair\x1fq=2", "experiment",
                                  "JL\x1fpair\x1fq=2", fam);
  tracer.AddSpanAttribute(exp, "code", "Ok");
  tracer.RecordEvent("JL\x1fpair\x1fq=2", "backoff", "backoff", exp,
                     {{"delay_ms", "3.5"}});
  tracer.EndSpan(exp);
  tracer.EndSpan(fam);
  tracer.EndSpan(root);
  return tracer.Snapshot();
}

TEST(ChromeTraceExportTest, EmitsValidSchemaWithVirtualTids) {
  std::vector<SpanRecord> spans = SampleSpans();
  std::string json = ToChromeTraceJson(spans);

  Result<serve::JsonValue> parsed = serve::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const serve::JsonValue& doc = parsed.ValueOrDie();
  ASSERT_TRUE(doc.is_object());
  const serve::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array_items().size(), spans.size());

  std::set<double> tids;
  for (const serve::JsonValue& ev : events->array_items()) {
    ASSERT_TRUE(ev.is_object());
    // Complete events: name/cat/ph/ts/dur/pid/tid all present.
    ASSERT_NE(ev.Find("name"), nullptr);
    ASSERT_NE(ev.Find("cat"), nullptr);
    ASSERT_NE(ev.Find("ph"), nullptr);
    EXPECT_EQ(ev.Find("ph")->string_value(), "X");
    ASSERT_NE(ev.Find("ts"), nullptr);
    EXPECT_TRUE(ev.Find("ts")->is_number());
    ASSERT_NE(ev.Find("dur"), nullptr);
    ASSERT_NE(ev.Find("pid"), nullptr);
    EXPECT_EQ(ev.Find("pid")->number_value(), 1.0);
    ASSERT_NE(ev.Find("tid"), nullptr);
    tids.insert(ev.Find("tid")->number_value());
    // Correlation ids ride in args.
    const serve::JsonValue* args = ev.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_TRUE(args->is_object());
    EXPECT_NE(args->Find("trace_id"), nullptr);
    EXPECT_NE(args->Find("span_id"), nullptr);
  }
  // Two distinct trace ids -> two deterministic virtual tids, 1-based.
  EXPECT_EQ(tids.size(), 2u);
  EXPECT_EQ(*tids.begin(), 1.0);
  EXPECT_EQ(*tids.rbegin(), 2.0);
}

TEST(ChromeTraceExportTest, EscapesControlBytesInStrings) {
  std::vector<SpanRecord> spans = SampleSpans();
  std::string json = ToChromeTraceJson(spans);
  // The journal-key separator 0x1f must never reach the output raw.
  EXPECT_EQ(json.find('\x1f'), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
}

TEST(TraceJsonlExportTest, OneValidObjectPerSpanInSortedOrder) {
  std::vector<SpanRecord> spans = SampleSpans();
  std::string jsonl = ToTraceJsonl(spans);

  std::vector<std::string> lines;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    lines.push_back(jsonl.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), spans.size());

  std::string prev_key;
  for (size_t i = 0; i < lines.size(); ++i) {
    Result<serve::JsonValue> parsed = serve::ParseJson(lines[i]);
    ASSERT_TRUE(parsed.ok()) << lines[i];
    const serve::JsonValue& obj = parsed.ValueOrDie();
    ASSERT_TRUE(obj.is_object());
    for (const char* field : {"trace_id", "span_id", "parent_id", "kind",
                              "name", "seq", "start_ns", "end_ns",
                              "attributes"}) {
      EXPECT_NE(obj.Find(field), nullptr) << field << " on line " << i;
    }
    EXPECT_EQ(obj.Find("trace_id")->string_value(), spans[i].trace_id);
    EXPECT_EQ(obj.Find("kind")->string_value(), spans[i].kind);
    std::string key = obj.Find("trace_id")->string_value();
    EXPECT_GE(key, prev_key) << "lines not sorted by trace_id";
    prev_key = key;
  }
}

TEST(TraceExportTest, ByteIdenticalAcrossRebuilds) {
  std::string chrome1 = ToChromeTraceJson(SampleSpans());
  std::string chrome2 = ToChromeTraceJson(SampleSpans());
  EXPECT_EQ(chrome1, chrome2);
  EXPECT_EQ(ToTraceJsonl(SampleSpans()), ToTraceJsonl(SampleSpans()));
}

}  // namespace
}  // namespace valentine
