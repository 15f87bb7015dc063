#ifndef VALENTINE_DISCOVERY_RERANK_H_
#define VALENTINE_DISCOVERY_RERANK_H_

/// \file rerank.h
/// Stage 3 of the staged discovery pipeline (DESIGN.md §14): scoring.
/// The ExactReranker turns the enriched CandidateSet into per-table
/// DiscoveryResults; the engine then sorts and truncates to the top-k.
/// It is the pre-split Prepare/Score path, byte-identical results.

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/table.h"
#include "discovery/types.h"
#include "matchers/matcher.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace valentine {

/// Per-query plumbing handed to Rerank: the caller's MatchContext
/// (deadline/cancellation) plus the engine's observability
/// sinks. All pointers are borrowed for the duration of the call.
struct RerankContext {
  /// The request's MatchContext (never null inside Rerank).
  const MatchContext* base = nullptr;
  /// Trace id of the enclosing query and the stage span to parent
  /// per-candidate spans under.
  std::string trace_id;
  uint64_t parent_span = 0;
  /// Engine-level observability (both optional).
  const Clock* clock = nullptr;
  Tracer* tracer = nullptr;
};

/// \brief The exact matcher-backed reranker: prepares the query once,
/// scores it against the artifacts the candidates' registry entries
/// hold (RegisteredTable::prepared, built by the first query that
/// scores an entry) — O(prepare + N·score) instead of the monolithic
/// O(N·(prepare + score)) — and aggregates column matches into table
/// scores (best column match for joinable; mean of the best per-column
/// matches with an arity penalty for unionable, §III-A).
///
/// Contract: returns one DiscoveryResult per candidate, in candidate
/// (= repository registration) order, without sorting or truncating —
/// ranking is the orchestrator's job. Deadline/cancellation failures
/// propagate as errors; the engine aborts the query.
///
/// Thread-safety: Rerank is safe for concurrent callers; the only state
/// it writes is the entries' internally synchronized slots.
class ExactReranker {
 public:
  struct Options {
    /// How many column matches contribute to a table's union score.
    size_t union_evidence_columns = 3;
  };

  /// `matcher` is borrowed and must outlive the reranker.
  explicit ExactReranker(const ColumnMatcher* matcher, Options options);

  [[nodiscard]] Result<std::vector<DiscoveryResult>> Rerank(
      const Table& query, DiscoveryMode mode, const CandidateSet& candidates,
      const RerankContext& rctx) const;

 private:
  /// A MatchContext carrying `rctx`'s observability plumbing plus the
  /// caller's deadline/cancellation.
  MatchContext ObsContext(const RerankContext& rctx,
                          uint64_t parent_span) const;

  /// The candidate's artifact for a matcher with this Name() and
  /// PrepareKey(): its entry's slot, filled on a miss by one traced
  /// Prepare over the entry's table. nullptr when Prepare fails;
  /// nothing is installed then.
  PreparedTablePtr CandidateArtifact(const RegisteredTable& candidate,
                                     const std::string& family,
                                     const std::string& prepare_key,
                                     const RerankContext& rctx) const;

  /// Scores the query against one repository table: the prepared fast
  /// path when both artifacts resolved, the monolithic matcher
  /// otherwise. Deadline/cancellation failures propagate (the caller
  /// aborts the query); any other matcher error — only possible via an
  /// injected decorator — degrades to the empty result, mirroring the
  /// infallible Match overload.
  Result<MatchResult> ScoreCandidate(const PreparedTable* prepared_query,
                                     const Table& query,
                                     const RegisteredTable& candidate,
                                     const std::string& family,
                                     const std::string& prepare_key,
                                     const RerankContext& rctx) const;

  const ColumnMatcher* matcher_;
  Options options_;
};

}  // namespace valentine

#endif  // VALENTINE_DISCOVERY_RERANK_H_
