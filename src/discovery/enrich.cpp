#include "discovery/enrich.h"

#include <algorithm>
#include <optional>
#include <string>

namespace valentine {

CandidateSet Enricher::Enrich(const RetrievedCandidates& retrieved,
                              const TableRepository& repository) const {
  // O(candidates · log N): each nomination is resolved through the
  // repository's name index, then put back in registration order.
  CandidateSet out;
  out.candidates.reserve(retrieved.tables.size());
  for (const std::string& name : retrieved.tables) {
    std::optional<size_t> position = repository.PositionOf(name);
    if (!position.has_value()) continue;
    EnrichedCandidate candidate;
    candidate.repository_index = *position;
    candidate.entry = &repository.entry(*position);
    out.candidates.push_back(candidate);
  }
  std::sort(out.candidates.begin(), out.candidates.end(),
            [](const EnrichedCandidate& a, const EnrichedCandidate& b) {
              return a.repository_index < b.repository_index;
            });
  return out;
}

}  // namespace valentine
