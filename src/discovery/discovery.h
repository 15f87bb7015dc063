#ifndef VALENTINE_DISCOVERY_DISCOVERY_H_
#define VALENTINE_DISCOVERY_DISCOVERY_H_

/// \file discovery.h
/// Dataset discovery on top of the matchers — the consuming use case the
/// paper targets (§II-B: "Valentine as a Discovery Component"). A
/// DiscoveryEngine orchestrates the staged pipeline of DESIGN.md §14
/// over a TableRepository:
///
///   Retrieve  a CandidateIndex nominates candidate tables
///             (discovery/candidate_index.h);
///   Enrich    the Enricher joins nominations to repository metadata
///             (discovery/enrich.h);
///   Rerank    the ExactReranker verifies and scores every candidate
///             (discovery/rerank.h);
///
/// then sorts and truncates to the top-k. Given a query table it
/// returns ranked *tables*:
///
///  * FindJoinable — tables containing at least one column whose value
///    domain overlaps/contains a query column (candidate pruning through
///    the MinHash-LSH index, verification through a column matcher);
///  * FindUnionable — tables whose schema aligns column-for-column with
///    the query (scored by the mean of the best per-column matches).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/table.h"
#include "discovery/candidate_index.h"
#include "discovery/enrich.h"
#include "discovery/repository.h"
#include "discovery/rerank.h"
#include "discovery/types.h"
#include "io/artifact_store.h"
#include "matchers/matcher.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
// Unused here; kept because callers get LshOptions through this header.
#include "scaling/lazo.h"

namespace valentine {

/// Engine configuration.
struct DiscoveryOptions {
  /// Column matcher used to verify/score candidate tables. When null, a
  /// default COMA-Instances matcher is used.
  MatcherPtr matcher;
  /// Minimum estimated containment for a query column to nominate a
  /// candidate table in FindJoinable.
  double min_containment = 0.3;
  /// How many column matches contribute to a table's union score.
  size_t union_evidence_columns = 3;
  /// On the LSH unionable path, also nominate tables that share a
  /// column-name token with the query. Value-disjoint but
  /// schema-aligned tables (the unionable case the value-based index
  /// cannot see) stay reachable.
  bool union_name_candidates = true;
  /// Optional persistent artifact store (borrowed; must outlive the
  /// engine). When set, AddTable first consults the store by table
  /// content fingerprint — a hit skips the sketch build entirely — and
  /// persists freshly built artifacts write-through, so the next
  /// process (or the next copy-on-write registry snapshot) registers
  /// the same table without rebuilding anything.
  ArtifactStore* store = nullptr;
  /// Observability (obs/), all optional and borrowed: each Find* call
  /// emits a "query" span (trace id "discovery/<query table>") with
  /// per-stage "stage" spans (discovery.retrieve / discovery.enrich /
  /// discovery.rerank) and the candidate scoring nested under it, and
  /// bumps valentine_discovery_queries_total{mode} plus the per-stage
  /// candidate/survivor/fallback counters. Results are byte-identical
  /// with or without them.
  const Clock* clock = nullptr;
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// \brief A searchable repository of tables.
///
/// Query cost model: a Find* call prepares the query table once and
/// scores it against the artifacts the repository entries hold, each
/// built by the first query that scores its entry and shared with every
/// snapshot and engine over that entry — O(prepare + N·score) instead
/// of the monolithic O(N·(prepare + score)). Mutations never drop an
/// artifact: an entry owns the table its artifact borrows. Results are
/// byte-identical to the monolithic path (the matcher pipeline
/// contract).
///
/// Thread-safety: concurrent FindJoinable/FindUnionable calls on a
/// const engine are safe (the entries' artifact slots are internally
/// synchronized, the matcher is const). AddTable/RemoveTable mutate
/// the repository and must not run concurrently with any other call.
class DiscoveryEngine {
 public:
  explicit DiscoveryEngine(DiscoveryOptions options = {});

  DiscoveryEngine(const DiscoveryEngine&) = delete;
  DiscoveryEngine& operator=(const DiscoveryEngine&) = delete;

  /// Builds an engine over an existing repository snapshot: every entry
  /// is banded once, from its already-built sketches, into a single
  /// index segment (no fingerprinting, no store IO, no value
  /// re-sketching). Fails when the snapshot's sketches are not
  /// kDiscoverySignatureSize wide.
  static Result<std::unique_ptr<DiscoveryEngine>> FromRepository(
      DiscoveryOptions options, TableRepository repository);

  /// Builds an engine over a repository snapshot and an LSH index that
  /// already holds exactly its tables, adopting the index instead of
  /// re-banding anything: the serving layer applies each mutation's
  /// delta to a copy of the previous snapshot's index (which shares its
  /// segments) and publishes it here. Fails when the index was
  /// built under options other than `options` would give it.
  static Result<std::unique_ptr<DiscoveryEngine>> FromRepository(
      DiscoveryOptions options, TableRepository repository,
      LshCandidateIndex index);

  /// Registers a table. Fails on duplicate table names, empty tables,
  /// and duplicate column names within the table; any other name is
  /// accepted, control characters included.
  /// With a store attached, sketches are loaded by content
  /// fingerprint when possible and persisted when built fresh. The
  /// index bands the table into a new segment and merges, as the
  /// serving registry's does (candidate_index.h's cost model).
  Status AddTable(Table table);

  /// Unregisters a table and removes it from the index; kNotFound when
  /// absent. The persistent store keeps its artifact (it is keyed by
  /// content, not by registration, and re-adding should stay free).
  Status RemoveTable(const std::string& name);

  size_t num_tables() const { return repository_.size(); }

  /// The repository this engine queries over. Copying it is a cheap
  /// snapshot (see discovery/repository.h).
  const TableRepository& repository() const { return repository_; }

  /// The LSH candidate index over repository(), sealed after every
  /// mutation. Copying it shares its segments (see
  /// discovery/candidate_index.h).
  const LshCandidateIndex& candidate_index() const { return candidate_index_; }

  /// Top-k tables joinable with the query: candidate tables are
  /// nominated by per-column LSH containment probes, then verified and
  /// scored with the matcher (score = best verified column match).
  std::vector<DiscoveryResult> FindJoinable(const Table& query,
                                            size_t k) const;

  /// Top-k unionable tables, scored by the mean of each candidate's
  /// `union_evidence_columns` best column matches against the query
  /// (schema-alignment semantics, §III-A). Candidates come from the
  /// LSH index + name-token postings.
  std::vector<DiscoveryResult> FindUnionable(const Table& query,
                                             size_t k) const;

  /// Budgeted/cancellable variants — the serving boundary's entry
  /// points. `ctx` threads a per-request Deadline and CancellationToken
  /// into every candidate's Prepare/Score; the query fails fast with
  /// kDeadlineExceeded/kCancelled (checked once before any work starts
  /// — a request arriving with a spent budget does zero scoring — and
  /// again between candidates). When ctx carries a trace id it replaces
  /// the engine's default "discovery/<table>" id, so serving spans
  /// parent correctly. An unbounded default-constructed ctx returns
  /// byte-identical results to the infallible overloads.
  ///
  /// `explain` (optional out-param) receives per-stage accounting —
  /// which index served, candidate counts per stage, fallback state —
  /// without changing result bytes.
  Result<std::vector<DiscoveryResult>> FindJoinable(
      const Table& query, size_t k, const MatchContext& ctx,
      DiscoveryExplain* explain = nullptr) const;
  Result<std::vector<DiscoveryResult>> FindUnionable(
      const Table& query, size_t k, const MatchContext& ctx,
      DiscoveryExplain* explain = nullptr) const;

  /// The staged pipeline behind both modes: `index` nominates
  /// candidates from repository() (Retrieve), then Enrich → Rerank, sort
  /// and truncate to the top-k. FindJoinable/FindUnionable pass
  /// candidate_index(); passing an ExhaustiveCandidateIndex scores every
  /// repository table, the reference the LSH path is A/B-checked
  /// against (bench/bench_repository.cpp). `index` only decides which
  /// tables pay the scoring cost, never a result's bytes.
  Result<std::vector<DiscoveryResult>> Find(
      const CandidateIndex& index, DiscoveryMode mode, const Table& query,
      size_t k, const MatchContext& ctx = {},
      DiscoveryExplain* explain = nullptr) const;

 private:
  const ColumnMatcher& matcher() const;

  DiscoveryOptions options_;
  TableRepository repository_;
  LshCandidateIndex candidate_index_;
  Enricher enricher_;
  ExactReranker reranker_;
};

}  // namespace valentine

#endif  // VALENTINE_DISCOVERY_DISCOVERY_H_
