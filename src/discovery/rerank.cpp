#include "discovery/rerank.h"

#include <algorithm>
#include <map>
#include <utility>

#include "discovery/repository.h"

namespace valentine {

ExactReranker::ExactReranker(const ColumnMatcher* matcher, Options options)
    : matcher_(matcher), options_(options) {}

MatchContext ExactReranker::ObsContext(const RerankContext& rctx,
                                       uint64_t parent_span) const {
  const MatchContext& base = *rctx.base;
  MatchContext context;
  context.deadline = base.deadline;
  context.cancel = base.cancel;
  context.trace_id = rctx.trace_id;
  context.clock = base.clock != nullptr ? base.clock : rctx.clock;
  context.tracer = rctx.tracer;
  context.parent_span = parent_span;
  return context;
}

PreparedTablePtr ExactReranker::CandidateArtifact(
    const RegisteredTable& candidate, const std::string& family,
    const std::string& prepare_key, const RerankContext& rctx) const {
  PreparedTablePtr held = candidate.prepared.Get(family, prepare_key);
  if (held != nullptr) return held;
  // Built outside any lock: two queries may race to build one entry's
  // artifact, and the slot keeps the first install.
  SpanScope prepare_span(rctx.tracer, rctx.trace_id, "prepare",
                         candidate.table.name(), rctx.parent_span);
  Result<PreparedTablePtr> built =
      matcher_->Prepare(candidate.table, ObsContext(rctx, prepare_span.id()));
  prepare_span.Attr("code", StatusCodeName(built.ok()
                                               ? StatusCode::kOk
                                               : built.status().code()));
  if (!built.ok()) return nullptr;
  return candidate.prepared.Install(std::move(built).ValueOrDie());
}

Result<MatchResult> ExactReranker::ScoreCandidate(
    const PreparedTable* prepared_query, const Table& query,
    const RegisteredTable& candidate, const std::string& family,
    const std::string& prepare_key, const RerankContext& rctx) const {
  const Table& table = candidate.table;
  if (prepared_query != nullptr) {
    PreparedTablePtr prepared_candidate =
        CandidateArtifact(candidate, family, prepare_key, rctx);
    if (prepared_candidate != nullptr) {
      SpanScope score_span(rctx.tracer, rctx.trace_id, "score", table.name(),
                           rctx.parent_span);
      score_span.Attr("path", "prepared");
      Result<MatchResult> scored =
          matcher_->Score(*prepared_query, *prepared_candidate,
                          /*pair=*/nullptr, ObsContext(rctx, score_span.id()));
      if (scored.ok()) return scored;
      // The request's budget/cancellation aborts the whole query; any
      // other error (only possible via an injected decorator) degrades
      // to the empty result, exactly like the infallible Match overload.
      if (scored.status().code() == StatusCode::kDeadlineExceeded ||
          scored.status().code() == StatusCode::kCancelled) {
        return scored.status();
      }
      return MatchResult();
    }
    // A failed artifact build under a fired context must abort, not
    // silently fall back to the slower monolithic path.
    Status checked = rctx.base->Check("discovery/prepare");
    if (!checked.ok()) return checked;
  }
  SpanScope score_span(rctx.tracer, rctx.trace_id, "score", table.name(),
                       rctx.parent_span);
  score_span.Attr("path", "monolithic");
  Result<MatchResult> matched =
      matcher_->Match(query, table, ObsContext(rctx, score_span.id()));
  if (matched.ok()) return matched;
  if (matched.status().code() == StatusCode::kDeadlineExceeded ||
      matched.status().code() == StatusCode::kCancelled) {
    return matched.status();
  }
  return MatchResult();
}

Result<std::vector<DiscoveryResult>> ExactReranker::Rerank(
    const Table& query, DiscoveryMode mode, const CandidateSet& candidates,
    const RerankContext& rctx) const {
  // Prepare the query once; every candidate scores against it. The
  // query is caller-owned and transient, so its artifact is built
  // inline rather than kept.
  Result<PreparedTablePtr> prepared_query =
      matcher_->Prepare(query, ObsContext(rctx, rctx.parent_span));
  const std::string family = matcher_->Name();
  const std::string prepare_key = matcher_->PrepareKey();

  const char* checkpoint = mode == DiscoveryMode::kJoinable
                               ? "discovery/joinable/candidate"
                               : "discovery/unionable/candidate";
  std::vector<DiscoveryResult> results;
  results.reserve(candidates.candidates.size());
  for (const EnrichedCandidate& candidate : candidates.candidates) {
    VALENTINE_RETURN_NOT_OK(rctx.base->Check(checkpoint));
    Result<MatchResult> scored = ScoreCandidate(
        prepared_query.ok() ? prepared_query->get() : nullptr, query,
        *candidate.entry, family, prepare_key, rctx);
    if (!scored.ok()) return scored.status();
    MatchResult ranked = std::move(scored).ValueOrDie();
    const Table& t = candidate.entry->table;
    DiscoveryResult r;
    r.table_name = t.name();
    if (mode == DiscoveryMode::kJoinable) {
      // Table score = best verified column match.
      if (!ranked.empty()) {
        r.score = ranked[0].score;
        r.evidence = ranked.TopK(3);
      }
    } else {
      // Union score: mean of the best per-query-column matches, over
      // the strongest `union_evidence_columns` columns.
      std::map<std::string, Match> best_per_column;
      for (const Match& m : ranked.matches()) {
        auto it = best_per_column.find(m.source.column);
        if (it == best_per_column.end() || m.score > it->second.score) {
          best_per_column[m.source.column] = m;
        }
      }
      std::vector<Match> bests;
      bests.reserve(best_per_column.size());
      for (auto& [col, m] : best_per_column) bests.push_back(m);
      std::sort(bests.begin(), bests.end(), [](const Match& a,
                                               const Match& b) {
        return a.score > b.score;
      });
      size_t evidence_n =
          std::min<size_t>(options_.union_evidence_columns, bests.size());
      if (evidence_n > 0) {
        double total = 0.0;
        for (size_t i = 0; i < evidence_n; ++i) {
          total += bests[i].score;
          r.evidence.push_back(bests[i]);
        }
        // Penalize arity mismatch: unionable relations must align fully.
        double arity = static_cast<double>(
                           std::min(query.num_columns(), t.num_columns())) /
                       static_cast<double>(
                           std::max(query.num_columns(), t.num_columns()));
        r.score = (total / static_cast<double>(evidence_n)) * arity;
      }
    }
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace valentine
