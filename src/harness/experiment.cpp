#include "harness/experiment.h"

#include "metrics/metrics.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace valentine {

ExperimentResult RunExperiment(const ColumnMatcher& matcher,
                               const std::string& config,
                               const DatasetPair& pair,
                               const MatchContext& context,
                               const PreparedTable* prepared_source,
                               const PreparedTable* prepared_target,
                               const PreparedPair* prepared_pair) {
  ExperimentResult result;
  result.pair_id = pair.id;
  result.scenario = pair.scenario;
  result.method = matcher.Name();
  result.config = config;
  result.ground_truth_size = pair.ground_truth.size();

  const bool prepared =
      prepared_source != nullptr && prepared_target != nullptr;
  SpanScope score_span(context.tracer, context.trace_id, "score",
                       matcher.Name(), context.parent_span);
  score_span.Attr("path", prepared ? "prepared" : "monolithic");
  // Matchers see the score span as their parent so any spans they emit
  // (cache builds, nested prepares) nest under the measured region.
  MatchContext inner = context;
  inner.parent_span = score_span.id() != 0 ? score_span.id()
                                           : context.parent_span;

  const Clock& clock = ClockOrSteady(context.clock);
  int64_t start_ns = clock.NowNanos();
  Result<MatchResult> matches =
      prepared ? matcher.Score(*prepared_source, *prepared_target,
                               prepared_pair, inner)
               : matcher.Match(pair.source, pair.target, inner);
  int64_t end_ns = clock.NowNanos();
  result.runtime_ms = ElapsedMs(start_ns, end_ns);

  if (!matches.ok()) {
    result.code = matches.status().code();
    result.error = matches.status().message();
    score_span.Attr("code", StatusCodeName(result.code));
    return result;
  }
  score_span.Attr("code", StatusCodeName(StatusCode::kOk));
  MatchResult ranked = std::move(matches).ValueOrDie();
  result.recall_at_gt = RecallAtGroundTruth(ranked, pair.ground_truth);
  result.map = MeanAveragePrecision(ranked, pair.ground_truth);
  return result;
}

}  // namespace valentine
