#ifndef VALENTINE_DISCOVERY_ENRICH_H_
#define VALENTINE_DISCOVERY_ENRICH_H_

/// \file enrich.h
/// Stage 2 of the staged discovery pipeline (DESIGN.md §14): metadata
/// enrichment. The Enricher joins stage 1's nominated table *names*
/// back to their TableRepository entries, so stage 3 reranks typed
/// candidates carrying everything derived at registration time —
/// sketches, identifier name tokens and the entry's prepared-artifact
/// slot — instead of re-deriving any of it per query.

#include "discovery/repository.h"
#include "discovery/types.h"

namespace valentine {

/// \brief Joins retrieved candidate names to repository entries.
///
/// Stateless and const-safe for concurrent queries.
class Enricher {
 public:
  /// Returns the candidates in repository registration order — the
  /// deterministic scoring order the reranker walks (and the order the
  /// pre-split engine scored in). Names not present in the repository
  /// (a nomination that raced a removal) are dropped, never invented.
  CandidateSet Enrich(const RetrievedCandidates& retrieved,
                      const TableRepository& repository) const;
};

}  // namespace valentine

#endif  // VALENTINE_DISCOVERY_ENRICH_H_
