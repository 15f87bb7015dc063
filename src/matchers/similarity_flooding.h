#ifndef VALENTINE_MATCHERS_SIMILARITY_FLOODING_H_
#define VALENTINE_MATCHERS_SIMILARITY_FLOODING_H_

/// \file similarity_flooding.h
/// Similarity Flooding (Melnik, Garcia-Molina, Rahm — ICDE 2002).
///
/// Each schema becomes a labeled digraph (table --column--> attribute
/// --type--> datatype). The two graphs are combined into a pairwise
/// connectivity graph whose nodes are map pairs (a, b); a map pair
/// propagates its similarity to neighbours connected through equal edge
/// labels, with "inverse average" propagation coefficients, iterated to a
/// fixpoint. As in the Valentine paper, the initial similarity is a
/// Levenshtein name similarity (the original leaves the function open),
/// the propagation coefficient is inverse_average and the fixpoint
/// formula is variant C.

#include "matchers/matcher.h"

namespace valentine {

/// Fixpoint formulae from the original paper (Table 3 there). Valentine
/// uses C; A and B are kept for the ablation bench.
enum class SfFormula {
  kBasic,  ///< σ^{i+1} = normalize(σ^i + φ(σ^i))
  kA,      ///< σ^{i+1} = normalize(σ^0 + φ(σ^i))
  kB,      ///< σ^{i+1} = normalize(φ(σ^0 + σ^i))
  kC,      ///< σ^{i+1} = normalize(σ^0 + σ^i + φ(σ^0 + σ^i))
};

/// Post-flooding filters from the original paper (§7 there): how the
/// multimapping of column pairs is reduced before ranking.
enum class SfFilter {
  kNone,            ///< rank every column pair by final similarity
  kStableMarriage,  ///< Gale-Shapley stable assignment over similarities
  kPerfectionist,   ///< keep pairs that are each other's best candidate
};

/// Similarity Flooding parameters.
struct SimilarityFloodingOptions {
  SfFormula formula = SfFormula::kC;
  SfFilter filter = SfFilter::kNone;
  size_t max_iterations = 100;
  double epsilon = 1e-4;  ///< fixpoint residual threshold
};

/// \brief Similarity Flooding graph matcher.
class SimilarityFloodingMatcher : public ColumnMatcher {
 public:
  explicit SimilarityFloodingMatcher(SimilarityFloodingOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "SimilarityFlooding"; }
  MatcherCategory Category() const override {
    return MatcherCategory::kSchemaBased;
  }
  std::vector<MatchType> Capabilities() const override {
    return {MatchType::kAttributeOverlap, MatchType::kDataType};
  }
  /// Artifact: the per-table schema digraph. Formula, filter, and
  /// fixpoint controls are all score-stage, so the key is constant.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const TableProfile* profile,
      const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const override;

 private:
  SimilarityFloodingOptions options_;
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_SIMILARITY_FLOODING_H_
