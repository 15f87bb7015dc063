#ifndef VALENTINE_MATCHERS_DISTRIBUTION_BASED_H_
#define VALENTINE_MATCHERS_DISTRIBUTION_BASED_H_

/// \file distribution_based.h
/// Distribution-based matching (Zhang, Hadjieleftheriou, Ooi et al. —
/// SIGMOD 2011): relate columns by comparing the distributions of their
/// value sets with the Earth Mover's Distance.
///
/// Phase 1 links column pairs whose full-set EMD falls below θ1.
/// Phase 2 refines surviving links with the *intersection EMD*: the EMD
/// between each column's distribution and the distribution of the two
/// columns' value-set intersection, pruning pairs above θ2.
/// The final step — which the original solves with CPLEX and Valentine
/// with PuLP — selects disjoint clusters; here it is a cluster-editing
/// partition solved exactly (branch-and-bound) on small components with
/// a greedy agglomerative fallback (DESIGN.md §3).
///
/// The paper runs this method twice (Dist#1 with θ in [0.1, 0.2] and
/// Dist#2 with θ in [0.3, 0.5]) and splits the single global threshold
/// into one per phase, which the options mirror.

#include "matchers/matcher.h"

namespace valentine {

/// Distribution-based matcher parameters.
struct DistributionBasedOptions {
  double phase1_threshold = 0.15;  ///< EMD cutoff in phase 1
  double phase2_threshold = 0.15;  ///< intersection-EMD cutoff in phase 2
  size_t num_bins = 32;            ///< quantile-histogram resolution
  size_t max_values = 5000;        ///< cap on distinct values per column
  /// Components up to this size get the exact partition solver.
  size_t exact_solver_limit = 10;
};

/// \brief EMD-clustering matcher over column value distributions.
class DistributionBasedMatcher : public ColumnMatcher {
 public:
  explicit DistributionBasedMatcher(DistributionBasedOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "DistributionBased"; }
  MatcherCategory Category() const override {
    return MatcherCategory::kInstanceBased;
  }
  std::vector<MatchType> Capabilities() const override {
    return {MatchType::kValueOverlap, MatchType::kDistribution};
  }
  /// Artifact: capped distinct-value lists + quantile histograms per
  /// column. The θ1/θ2 sweep (Dist#1 vs Dist#2) shares one artifact.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const MatchContext& context) const override;
  /// Pair artifact: the phase-1 EMD of every cross-table column pair,
  /// which no θ depends on. Phase 2, cluster selection and ranking stay
  /// in Score.
  [[nodiscard]] Result<PreparedPairPtr> PreparePair(
      const PreparedTable& source, const PreparedTable& target,
      const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const override;

 private:
  DistributionBasedOptions options_;
};

/// Partition nodes into disjoint clusters maximizing the sum of
/// intra-cluster pair weights (cluster editing objective). `weights` maps
/// node pairs (i < j) packed as i * n + j to a signed weight; missing
/// pairs count as `missing_penalty`. Exact branch-and-bound when
/// n <= exact_limit, greedy agglomerative otherwise. Exposed for tests.
std::vector<size_t> SolveClusterSelection(
    size_t n, const std::vector<std::vector<double>>& weight,
    size_t exact_limit);

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_DISTRIBUTION_BASED_H_
