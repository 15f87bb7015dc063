#ifndef VALENTINE_DISCOVERY_RERANK_H_
#define VALENTINE_DISCOVERY_RERANK_H_

/// \file rerank.h
/// Stage 3 of the staged discovery pipeline (DESIGN.md §14): scoring.
/// A Reranker turns the enriched CandidateSet into per-table
/// DiscoveryResults; the engine then sorts and truncates to the top-k.
/// The default ExactReranker is the pre-split Prepare/Score path moved
/// behind the interface — byte-identical results — and the interface is
/// the seam ROADMAP item 3's trainable scorer plugs into.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/table.h"
#include "discovery/types.h"
#include "matchers/artifact_cache.h"
#include "matchers/matcher.h"
#include "obs/clock.h"
#include "obs/metrics.h"
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
  /// Engine-level observability (all optional).
  const Clock* clock = nullptr;
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// \brief Scores enriched candidates into DiscoveryResults.
///
/// Contract: returns one DiscoveryResult per candidate, in candidate
/// (= repository registration) order, without sorting or truncating —
/// ranking is the orchestrator's job. Deadline/cancellation failures
/// propagate as errors; the engine aborts the query.
///
/// Thread-safety: Rerank on a const reranker must be safe for
/// concurrent callers (any internal caching internally synchronized);
/// OnRepositoryChanged must not race Rerank.
class Reranker {
 public:
  virtual ~Reranker() = default;

  /// Implementation name, e.g. "exact".
  virtual std::string Name() const = 0;

  [[nodiscard]] virtual Result<std::vector<DiscoveryResult>> Rerank(
      const Table& query, DiscoveryMode mode, const CandidateSet& candidates,
      const RerankContext& rctx) const = 0;

  /// Repository mutation hook: drop any cached per-table state.
  virtual void OnRepositoryChanged() {}
};

/// \brief The exact matcher-backed reranker: prepares the query once,
/// scores it against cached per-repository-table artifacts —
/// O(prepare + N·score) instead of the monolithic O(N·(prepare +
/// score)) — and aggregates column matches into table scores (best
/// column match for joinable; mean of the best per-column matches with
/// an arity penalty for unionable, §III-A).
class ExactReranker : public Reranker {
 public:
  struct Options {
    /// How many column matches contribute to a table's union score.
    size_t union_evidence_columns = 3;
  };

  /// `matcher` is borrowed and must outlive the reranker.
  explicit ExactReranker(const ColumnMatcher* matcher, Options options);

  std::string Name() const override { return "exact"; }

  [[nodiscard]] Result<std::vector<DiscoveryResult>> Rerank(
      const Table& query, DiscoveryMode mode, const CandidateSet& candidates,
      const RerankContext& rctx) const override;

  /// Cached artifacts borrow repository table storage; a mutation drops
  /// them (rebuilt lazily on the next query).
  void OnRepositoryChanged() override { artifacts_.Clear(); }

 private:
  /// A MatchContext carrying `rctx`'s observability plumbing plus the
  /// caller's deadline/cancellation.
  MatchContext ObsContext(const RerankContext& rctx,
                          uint64_t parent_span) const;

  /// Scores the query against one repository table: the prepared fast
  /// path when both artifacts resolved, the monolithic matcher
  /// otherwise. Deadline/cancellation failures propagate (the caller
  /// aborts the query); any other matcher error — only possible via an
  /// injected decorator — degrades to the empty result, mirroring the
  /// infallible Match overload.
  Result<MatchResult> ScoreCandidate(const PreparedTable* prepared_query,
                                     const Table& query,
                                     const RegisteredTable& candidate,
                                     const RerankContext& rctx) const;

  const ColumnMatcher* matcher_;
  Options options_;
  /// Per-repository-table prepared artifacts, built lazily by Rerank
  /// calls and shared across them. Mutable because caching is not
  /// observable through results; its internal mutex is what makes
  /// concurrent const queries safe.
  mutable ArtifactCache artifacts_;
};

}  // namespace valentine

#endif  // VALENTINE_DISCOVERY_RERANK_H_
