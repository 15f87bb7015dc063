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
  /// Candidate pruning (off at 0): column pairs whose fuzzy-Jaccard
  /// score cannot reach this threshold are skipped and never added to
  /// the result. The size-ratio bound min(|A|,|B|)/max(|A|,|B|) is a
  /// provable upper bound on the score, so that prune is exact; the
  /// MinHash estimate (used only when both profiles are available and
  /// cap-compatible) is probabilistic and softened by `prune_slack`.
  /// Pruning changes result *contents* (absent pairs), not scores, and
  /// is therefore opt-in — the default campaign path never prunes.
  double prune_below = 0.0;
  /// Safety margin subtracted before the MinHash prune fires: skip only
  /// when estimate + prune_slack < prune_below.
  double prune_slack = 0.15;
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
  /// FuzzyJaccardColumn inputs, a pure function of the list (+ MinHash
  /// sketches when the opt-in prune is on). The threshold/kernel sweep
  /// shares one artifact per table.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const TableProfile* profile,
      const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const MatchContext& context) const override;

 private:
  JaccardLevenshteinOptions options_;
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_JACCARD_LEVENSHTEIN_H_
