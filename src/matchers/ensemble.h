#ifndef VALENTINE_MATCHERS_ENSEMBLE_H_
#define VALENTINE_MATCHERS_ENSEMBLE_H_

/// \file ensemble.h
/// Matcher composition by rank fusion — the paper's first lesson learned
/// (§IX "One size does not fit all": COMA's *composing* of methods
/// "should be the preferred way in dataset discovery"). An
/// EnsembleMatcher runs several member matchers and fuses their ranked
/// lists:
///
///  * kReciprocalRank — RRF: score(pair) = Σ 1 / (k + rank_m(pair));
///    robust to incomparable score scales;
///  * kBorda — Borda count over ranks;
///  * kScoreAverage — mean of member scores (assumes [0,1] scales).

#include <memory>
#include <vector>

#include "matchers/matcher.h"

namespace valentine {

/// How member rankings are combined.
enum class FusionStrategy {
  kReciprocalRank,
  kBorda,
  kScoreAverage,
};

/// Ensemble parameters.
struct EnsembleOptions {
  FusionStrategy fusion = FusionStrategy::kReciprocalRank;
  /// RRF damping constant (the classic default is 60; smaller values
  /// weight the top ranks harder — good for short column rankings).
  double rrf_k = 10.0;
};

/// \brief Rank-fusion composite over member matchers.
class EnsembleMatcher : public ColumnMatcher {
 public:
  EnsembleMatcher(std::vector<MatcherPtr> members,
                  EnsembleOptions options = {})
      : members_(std::move(members)), options_(options) {}

  std::string Name() const override;
  MatcherCategory Category() const override;
  std::vector<MatchType> Capabilities() const override;
  /// Artifact: one member artifact per member, in member order. The key
  /// concatenates every member's name and prepare key, so an ensemble
  /// artifact is only served to an ensemble with the same member lineup.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const TableProfile* profile,
      const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const override;

  size_t num_members() const { return members_.size(); }

 private:
  std::vector<MatcherPtr> members_;
  EnsembleOptions options_;
};

/// The suite's recommended default ensemble: COMA (instances) + the
/// distribution-based matcher + the Jaccard-Levenshtein baseline — the
/// three winners across the paper's data sources.
[[nodiscard]] MatcherPtr MakeDefaultEnsemble(EnsembleOptions options = {});

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_ENSEMBLE_H_
