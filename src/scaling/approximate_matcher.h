#ifndef VALENTINE_SCALING_APPROXIMATE_MATCHER_H_
#define VALENTINE_SCALING_APPROXIMATE_MATCHER_H_

/// \file approximate_matcher.h
/// A sketch-based value-overlap matcher: the scalable counterpart of the
/// Jaccard-Levenshtein baseline (paper §IX: "future research should
/// focus on approximations of existing ... methods to allow for better
/// scaling"). Column value sets are sketched once (MinHash + cardinality,
/// à la Lazo); a pair is estimated only when its two signatures agree on
/// every row of some LSH band, compared directly since one table pair
/// needs no index; scores are Lazo-estimated Jaccard values.

#include "matchers/matcher.h"
#include "scaling/lazo.h"

namespace valentine {

/// Approximate matcher parameters.
struct ApproximateOverlapOptions {
  /// Signature width and banding; a band or row count of 0 acts as 1.
  LshOptions lsh;
  /// Pairs with an estimated Jaccard below this are dropped (0 ranks
  /// every LSH candidate pair).
  double min_jaccard = 0.0;
  /// When true, skip LSH candidate pruning and estimate every pair —
  /// isolates the sketching error from the pruning error in ablations.
  /// A pair with an empty (all-null) column scores 0 here; pruning
  /// drops it.
  bool estimate_all_pairs = false;
};

/// \brief LSH + Lazo approximate value-overlap matcher.
class ApproximateOverlapMatcher : public ColumnMatcher {
 public:
  explicit ApproximateOverlapMatcher(ApproximateOverlapOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "ApproxOverlap"; }
  MatcherCategory Category() const override {
    return MatcherCategory::kInstanceBased;
  }
  std::vector<MatchType> Capabilities() const override {
    return {MatchType::kValueOverlap};
  }
  [[nodiscard]] Result<MatchResult> MatchWithContext(
      const Table& source, const Table& target,
      const MatchContext& context) const override;

 private:
  ApproximateOverlapOptions options_;
};

}  // namespace valentine

#endif  // VALENTINE_SCALING_APPROXIMATE_MATCHER_H_
