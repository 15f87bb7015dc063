#ifndef VALENTINE_MATCHERS_JACCARD_LEVENSHTEIN_H_
#define VALENTINE_MATCHERS_JACCARD_LEVENSHTEIN_H_

/// \file jaccard_levenshtein.h
/// The paper's baseline (§VI-A, "Jaccard-Levenshtein Matcher"): a naive
/// instance-based matcher that computes all pairwise column similarities
/// with Jaccard similarity, where two values count as identical when
/// their normalized Levenshtein distance is below a threshold.
///
/// `Prepare` does the per-value work once per column: next to the
/// capped, first-seen distinct list it builds the FuzzyJaccardColumn
/// (value lengths, sorted value hashes, folded character bags). `Score`
/// then runs the fuzzy-Jaccard kernel on every column pair: a merge of
/// the sorted hashes for the exact matches, then greedy first-fit over
/// the leftover indices behind the length test, the folded bag bound
/// and bit-parallel (or, past 64 bytes, banded) edit distance.

#include "matchers/matcher.h"
#include "text/string_similarity.h"

namespace valentine {

/// Parameters of the baseline (paper Table II: threshold in [0.4, 0.8]).
struct JaccardLevenshteinOptions {
  /// Maximum normalized Levenshtein distance for two values to be
  /// treated as identical.
  double threshold = 0.5;
  /// Cap on distinct values compared per column (keeps the quadratic
  /// fuzzy stage tractable; 0 = unlimited).
  size_t max_distinct_values = 500;
  /// Edit-distance kernel for the fuzzy stage. Both kernels score
  /// identically; kNaive (no bag bound, full-matrix DP) is the reference
  /// kept for equivalence tests and kernel benchmarks.
  LevenshteinKernel kernel = LevenshteinKernel::kBanded;
};

/// \brief Fuzzy-Jaccard value-overlap baseline matcher.
class JaccardLevenshteinMatcher : public ColumnMatcher {
 public:
  explicit JaccardLevenshteinMatcher(JaccardLevenshteinOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "JaccardLevenshtein"; }
  MatcherCategory Category() const override {
    return MatcherCategory::kInstanceBased;
  }
  std::vector<MatchType> Capabilities() const override {
    return {MatchType::kValueOverlap};
  }
  /// Artifact: per column, the capped distinct-value list and its
  /// FuzzyJaccardColumn inputs, a pure function of the list. The
  /// threshold/kernel sweep shares one artifact per table.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const TableProfile* profile,
      const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const override;

 private:
  JaccardLevenshteinOptions options_;
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_JACCARD_LEVENSHTEIN_H_
