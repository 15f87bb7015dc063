#include "matchers/ensemble.h"

#include <algorithm>
#include <map>
#include <utility>

#include "matchers/coma.h"
#include "matchers/distribution_based.h"
#include "matchers/jaccard_levenshtein.h"

namespace valentine {

std::string EnsembleMatcher::Name() const {
  std::string name = "Ensemble(";
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) name += "+";
    name += members_[i]->Name();
  }
  name += ")";
  return name;
}

MatcherCategory EnsembleMatcher::Category() const {
  // Any mix of schema and instance members makes the ensemble hybrid.
  bool any_schema = false;
  bool any_instance = false;
  for (const auto& m : members_) {
    switch (m->Category()) {
      case MatcherCategory::kSchemaBased: any_schema = true; break;
      case MatcherCategory::kInstanceBased: any_instance = true; break;
      case MatcherCategory::kHybrid: return MatcherCategory::kHybrid;
    }
  }
  if (any_schema && any_instance) return MatcherCategory::kHybrid;
  return any_schema ? MatcherCategory::kSchemaBased
                    : MatcherCategory::kInstanceBased;
}

std::vector<MatchType> EnsembleMatcher::Capabilities() const {
  std::vector<MatchType> caps;
  for (const auto& m : members_) {
    for (MatchType t : m->Capabilities()) {
      if (std::find(caps.begin(), caps.end(), t) == caps.end()) {
        caps.push_back(t);
      }
    }
  }
  return caps;
}

namespace {

/// Per-table artifact: each member's artifact for the same table, in
/// member order. Built so an ensemble shares per-member prepare work
/// across pairs exactly like its members would standalone.
struct EnsemblePrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<PreparedTablePtr> members;
};

}  // namespace

std::string EnsembleMatcher::PrepareKey() const {
  // Fusion strategy and rrf_k are score-stage; the artifact depends on
  // the member lineup and each member's own prepare-relevant options.
  std::string key;
  for (const auto& m : members_) {
    key += m->Name() + "{" + m->PrepareKey() + "}";
  }
  return key;
}

Result<PreparedTablePtr> EnsembleMatcher::Prepare(
    const Table& table, const MatchContext& context) const {
  auto prepared =
      std::make_shared<EnsemblePrepared>(&table, Name(), PrepareKey());
  prepared->members.reserve(members_.size());
  for (const auto& member : members_) {
    Result<PreparedTablePtr> artifact = member->Prepare(table, context);
    VALENTINE_RETURN_NOT_OK(artifact.status());
    prepared->members.push_back(std::move(*artifact));
  }
  return PreparedTablePtr(std::move(prepared));
}

Result<MatchResult> EnsembleMatcher::Score(const PreparedTable& source,
                                           const PreparedTable& target,
                                           const PreparedPair* /*pair*/,
                                           const MatchContext& context) const {
  const auto* src = dynamic_cast<const EnsemblePrepared*>(&source);
  const auto* tgt = dynamic_cast<const EnsemblePrepared*>(&target);
  if (src == nullptr || tgt == nullptr ||
      src->prepare_key() != PrepareKey() ||
      tgt->prepare_key() != PrepareKey()) {
    return MatchWithContext(source.table(), target.table(), context);
  }

  using PairKey = std::pair<std::string, std::string>;
  struct Fused {
    ColumnRef source_ref;
    ColumnRef target_ref;
    double score = 0.0;
    size_t votes = 0;
  };
  std::map<PairKey, Fused> fused;

  for (size_t mi = 0; mi < members_.size(); ++mi) {
    // Members inherit the shared budget: the first one to exceed it
    // fails the whole ensemble (a partial fusion would silently rank
    // from fewer voters).
    Result<MatchResult> member_result = members_[mi]->Score(
        *src->members[mi], *tgt->members[mi], /*pair=*/nullptr, context);
    if (!member_result.ok()) return member_result.status();
    MatchResult ranked = std::move(member_result).ValueOrDie();
    for (size_t rank = 0; rank < ranked.size(); ++rank) {
      // "struct Match" disambiguates from the Match() member function.
      const struct Match& m = ranked[rank];
      Fused& f = fused[{m.source.column, m.target.column}];
      f.source_ref = m.source;
      f.target_ref = m.target;
      ++f.votes;
      switch (options_.fusion) {
        case FusionStrategy::kReciprocalRank:
          f.score += 1.0 / (options_.rrf_k + static_cast<double>(rank + 1));
          break;
        case FusionStrategy::kBorda:
          f.score += static_cast<double>(ranked.size() - rank);
          break;
        case FusionStrategy::kScoreAverage:
          f.score += m.score;
          break;
      }
    }
  }

  // Normalize so scores land in [0, 1] regardless of fusion strategy.
  double max_score = 0.0;
  for (const auto& [key, f] : fused) max_score = std::max(max_score, f.score);

  MatchResult result;
  for (const auto& [key, f] : fused) {
    double score = f.score;
    if (options_.fusion == FusionStrategy::kScoreAverage) {
      score /= static_cast<double>(members_.size());
    } else if (max_score > 0.0) {
      score /= max_score;
    }
    result.Add(f.source_ref, f.target_ref, score);
  }
  result.Sort();
  return result;
}

MatcherPtr MakeDefaultEnsemble(EnsembleOptions options) {
  std::vector<MatcherPtr> members;
  {
    ComaOptions o;
    o.strategy = ComaStrategy::kInstances;
    members.push_back(std::make_unique<ComaMatcher>(o));
  }
  members.push_back(std::make_unique<DistributionBasedMatcher>());
  {
    JaccardLevenshteinOptions o;
    o.max_distinct_values = 300;
    members.push_back(std::make_unique<JaccardLevenshteinMatcher>(o));
  }
  return std::make_unique<EnsembleMatcher>(std::move(members), options);
}

}  // namespace valentine
