#ifndef VALENTINE_DISCOVERY_TYPES_H_
#define VALENTINE_DISCOVERY_TYPES_H_

/// \file types.h
/// Shared value types of the staged discovery pipeline. A discovery
/// query flows Retrieve → Enrich → Rerank (DESIGN.md §14):
///
///   Retrieve  a CandidateIndex nominates candidate table names
///             (RetrievedCandidates) — cheap, recall-oriented;
///   Enrich    an Enricher joins the nominations back to the
///             repository's per-table entries (sketches, name tokens,
///             prepared-artifact slot) as a typed CandidateSet;
///   Rerank    a Reranker scores every enriched candidate and the
///             orchestrator sorts/truncates to the top-k.
///
/// These types carry no behavior so every stage interface can depend on
/// them without depending on each other.

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "matchers/match_result.h"

namespace valentine {

struct RegisteredTable;  // repository.h

/// Which table-level relation a query asks for.
enum class DiscoveryMode {
  kJoinable,
  kUnionable,
};

/// "joinable" / "unionable" — the spelling used in metrics labels,
/// span attributes, and the serve wire format.
const char* DiscoveryModeName(DiscoveryMode mode);

/// One discovered table with its evidence.
struct DiscoveryResult {
  std::string table_name;
  double score = 0.0;          ///< table-level relatedness
  std::vector<Match> evidence; ///< the column matches behind the score
};

/// Stage-1 output: the candidate table names a CandidateIndex nominated
/// for a query, plus provenance for observability.
struct RetrievedCandidates {
  /// Names of nominated repository tables (sorted, deduplicated).
  std::set<std::string> tables;
  /// CandidateIndex::Name() of the index that served the query.
  std::string index;
  /// True when the configured index could not see the query (e.g. every
  /// query column sketched empty) and degraded to nominating the whole
  /// repository instead of silently returning nothing.
  bool fallback = false;
  /// Machine-readable cause, non-empty iff `fallback` (metric label).
  std::string fallback_reason;
};

/// One retrieved candidate joined back to its repository entry. The
/// entry pointer borrows from the TableRepository the candidate was
/// enriched against and stays valid for the lifetime of that
/// repository's entry (entries are immutable and shared).
struct EnrichedCandidate {
  size_t repository_index = 0;
  const RegisteredTable* entry = nullptr;
};

/// Stage-2 output: enriched candidates in repository registration
/// order — the deterministic scoring order the reranker walks.
struct CandidateSet {
  std::vector<EnrichedCandidate> candidates;
};

/// Per-stage accounting for one Find* call, surfaced through the serve
/// layer's opt-in `explain` response field. Purely observational: the
/// ranked results are byte-identical whether or not it is requested.
struct DiscoveryExplain {
  std::string index;              ///< CandidateIndex that served stage 1
  bool fallback = false;          ///< stage 1 degraded to exhaustive
  std::string fallback_reason;    ///< non-empty iff fallback
  size_t repository_tables = 0;   ///< repository size at query time
  size_t retrieved = 0;           ///< stage-1 nominations
  size_t enriched = 0;            ///< stage-2 candidates entering rerank
  size_t reranked = 0;            ///< stage-3 candidates actually scored
  size_t survivors = 0;           ///< results returned after top-k
};

}  // namespace valentine

#endif  // VALENTINE_DISCOVERY_TYPES_H_
