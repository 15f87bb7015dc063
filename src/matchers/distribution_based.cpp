#include "matchers/distribution_based.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>

#include "stats/emd.h"
#include "stats/histogram.h"

namespace valentine {

namespace {

/// Exhaustive partition search over at most `exact_limit` nodes:
/// recursively assigns each node to an existing block or a new one,
/// keeping the best total intra-block weight.
void ExactPartition(size_t node, size_t n,
                    const std::vector<std::vector<double>>& weight,
                    std::vector<size_t>* assign, size_t num_blocks,
                    double score, double* best_score,
                    std::vector<size_t>* best_assign) {
  if (node == n) {
    if (score > *best_score) {
      *best_score = score;
      *best_assign = *assign;
    }
    return;
  }
  for (size_t b = 0; b <= num_blocks; ++b) {
    double delta = 0.0;
    for (size_t prev = 0; prev < node; ++prev) {
      if ((*assign)[prev] == b) delta += weight[prev][node];
    }
    (*assign)[node] = b;
    ExactPartition(node + 1, n, weight, assign,
                   std::max(num_blocks, b + 1), score + delta, best_score,
                   best_assign);
  }
}

/// Greedy agglomerative clustering: merge the cluster pair with the
/// largest positive gain until no merge improves the objective. The
/// inter-cluster gain matrix is maintained incrementally, so the whole
/// run is O(n^3) in the worst case.
std::vector<size_t> GreedyPartition(
    size_t n, const std::vector<std::vector<double>>& weight) {
  std::vector<size_t> assign(n);
  for (size_t i = 0; i < n; ++i) assign[i] = i;
  std::vector<bool> alive(n, true);
  // gain[a][b] = total pair weight between current clusters a and b.
  std::vector<std::vector<double>> gain(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      gain[i][j] = gain[j][i] = weight[i][j];
    }
  }
  while (true) {
    double best_gain = 0.0;
    size_t best_a = 0;
    size_t best_b = 0;
    for (size_t a = 0; a < n; ++a) {
      if (!alive[a]) continue;
      for (size_t b = a + 1; b < n; ++b) {
        if (!alive[b]) continue;
        if (gain[a][b] > best_gain) {
          best_gain = gain[a][b];
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_gain <= 0.0) break;
    for (size_t i = 0; i < n; ++i) {
      if (assign[i] == best_b) assign[i] = best_a;
    }
    for (size_t c = 0; c < n; ++c) {
      if (!alive[c] || c == best_a || c == best_b) continue;
      gain[best_a][c] += gain[best_b][c];
      gain[c][best_a] = gain[best_a][c];
    }
    alive[best_b] = false;
  }
  return assign;
}

}  // namespace

std::vector<size_t> SolveClusterSelection(
    size_t n, const std::vector<std::vector<double>>& weight,
    size_t exact_limit) {
  if (n == 0) return {};
  if (n <= exact_limit) {
    std::vector<size_t> assign(n, 0);
    std::vector<size_t> best_assign(n, 0);
    double best_score = -std::numeric_limits<double>::max();
    ExactPartition(0, n, weight, &assign, 0, 0.0, &best_score, &best_assign);
    return best_assign;
  }
  return GreedyPartition(n, weight);
}

namespace {

/// Per-table artifact: capped distinct-value lists and quantile
/// histograms per column — the per-table halves of the phase-1/phase-2
/// EMD sweep. Intersection sets stay in Score (pair-dependent).
struct DistPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<std::vector<std::string>> values;
  std::vector<QuantileHistogram> hists;
};

/// Pair artifact: the phase-1 EMD of every (source column, target
/// column) pair, row-major.
struct DistPair : PreparedPair {
  using PreparedPair::PreparedPair;
  std::vector<double> emd;
};

Result<std::shared_ptr<const DistPair>> BuildDistPair(
    const DistPrepared& src, const DistPrepared& tgt,
    const MatchContext& context) {
  const size_t ns = src.hists.size();
  const size_t nt = tgt.hists.size();
  auto pair = std::make_shared<DistPair>(src, tgt);
  pair->emd.resize(ns * nt);
  for (size_t i = 0; i < ns; ++i) {
    // One check per source column bounds cancellation latency to a row
    // of EMD computations.
    VALENTINE_RETURN_NOT_OK(context.Check("distribution-based EMD sweep"));
    for (size_t j = 0; j < nt; ++j) {
      pair->emd[i * nt + j] = EmdBetweenHistograms(src.hists[i], tgt.hists[j]);
    }
  }
  return std::shared_ptr<const DistPair>(std::move(pair));
}

}  // namespace

std::string DistributionBasedMatcher::PrepareKey() const {
  // θ1/θ2 and the solver limit are score-stage; the artifact depends on
  // the value cap and the histogram resolution.
  return "cap=" + std::to_string(options_.max_values) +
         ";bins=" + std::to_string(options_.num_bins);
}

Result<PreparedTablePtr> DistributionBasedMatcher::Prepare(
    const Table& table, const MatchContext& context) const {
  VALENTINE_RETURN_NOT_OK(context.Check("distribution-based prepare"));
  auto prepared = std::make_shared<DistPrepared>(&table, Name(), PrepareKey());
  const size_t n = table.num_columns();
  prepared->values.resize(n);
  prepared->hists.resize(n);
  for (size_t c = 0; c < n; ++c) {
    std::vector<std::string> vals = table.column(c).DistinctStrings();
    if (options_.max_values > 0 && vals.size() > options_.max_values) {
      vals.resize(options_.max_values);
    }
    prepared->values[c] = std::move(vals);
    prepared->hists[c] = QuantileHistogram::Build(
        ValuesToPoints(prepared->values[c]), options_.num_bins);
  }
  return PreparedTablePtr(std::move(prepared));
}

Result<PreparedPairPtr> DistributionBasedMatcher::PreparePair(
    const PreparedTable& source, const PreparedTable& target,
    const MatchContext& context) const {
  const auto* src = dynamic_cast<const DistPrepared*>(&source);
  const auto* tgt = dynamic_cast<const DistPrepared*>(&target);
  const std::string key = PrepareKey();
  if (src == nullptr || tgt == nullptr || src->prepare_key() != key ||
      tgt->prepare_key() != key) {
    return PreparedPairPtr();
  }
  Result<std::shared_ptr<const DistPair>> built =
      BuildDistPair(*src, *tgt, context);
  VALENTINE_RETURN_NOT_OK(built.status());
  return PreparedPairPtr(std::move(built).ValueOrDie());
}

Result<MatchResult> DistributionBasedMatcher::Score(
    const PreparedTable& source, const PreparedTable& target,
    const PreparedPair* pair, const MatchContext& context) const {
  const auto* src = dynamic_cast<const DistPrepared*>(&source);
  const auto* tgt = dynamic_cast<const DistPrepared*>(&target);
  const std::string key = PrepareKey();
  if (src == nullptr || tgt == nullptr || src->prepare_key() != key ||
      tgt->prepare_key() != key) {
    return MatchWithContext(source.table(), target.table(), context);
  }
  // The shared pair artifact when it is this pair's, else built inline.
  const auto* phase1 = dynamic_cast<const DistPair*>(pair);
  std::shared_ptr<const DistPair> inline_pair;
  if (phase1 == nullptr || !phase1->Serves(source, target, key)) {
    Result<std::shared_ptr<const DistPair>> built =
        BuildDistPair(*src, *tgt, context);
    VALENTINE_RETURN_NOT_OK(built.status());
    inline_pair = std::move(built).ValueOrDie();
    phase1 = inline_pair.get();
  }

  const Table& source_table = src->table();
  const Table& target_table = tgt->table();
  const size_t ns = src->values.size();
  const size_t nt = tgt->values.size();
  const size_t n = ns + nt;

  // Phase-2 needs each target column's values as a set; build each at
  // most once and only for columns phase 1 actually reaches.
  std::vector<std::unordered_set<std::string>> tgt_sets(nt);
  std::vector<bool> tgt_set_built(nt, false);
  auto target_set = [&](size_t j) -> const std::unordered_set<std::string>& {
    if (!tgt_set_built[j]) {
      tgt_sets[j].insert(tgt->values[j].begin(), tgt->values[j].end());
      tgt_set_built[j] = true;
    }
    return tgt_sets[j];
  };

  // --- Phase 1: the pair artifact's full-set EMD under θ1. ---
  // Signed weights for the final partition: surviving links positive,
  // everything else mildly repulsive so blocks stay clique-like.
  constexpr double kNonEdgePenalty = -0.25;
  std::vector<std::vector<double>> weight(
      n, std::vector<double>(n, kNonEdgePenalty));
  struct Link {
    size_t a;
    size_t b;
    double score;
  };
  std::vector<Link> links;
  for (size_t i = 0; i < ns; ++i) {
    // One check per source column bounds cancellation latency to a row
    // of phase-2 work.
    VALENTINE_RETURN_NOT_OK(context.Check("distribution-based phase 2"));
    for (size_t j = 0; j < nt; ++j) {
      if (phase1->emd[i * nt + j] > options_.phase1_threshold) continue;

      // --- Phase 2: intersection EMD under θ2. ---
      const std::unordered_set<std::string>& set_b = target_set(j);
      std::vector<std::string> inter;
      for (const auto& v : src->values[i]) {
        if (set_b.count(v)) inter.push_back(v);
      }
      double emd2;
      if (inter.empty()) {
        emd2 = std::numeric_limits<double>::max();
      } else {
        QuantileHistogram hi =
            QuantileHistogram::Build(ValuesToPoints(inter), options_.num_bins);
        emd2 = std::max(EmdBetweenHistograms(src->hists[i], hi),
                        EmdBetweenHistograms(tgt->hists[j], hi));
      }
      if (emd2 > options_.phase2_threshold) continue;
      double score = 1.0 / (1.0 + emd2);
      links.push_back({i, ns + j, score});
      weight[i][ns + j] = score;
    }
  }

  // --- Final step: disjoint cluster selection (ILP substitute). ---
  std::vector<size_t> assign =
      SolveClusterSelection(n, weight, options_.exact_solver_limit);

  std::vector<ScoredCell> cells;
  for (const Link& link : links) {
    if (assign[link.a] != assign[link.b]) continue;
    cells.emplace_back(link.a, link.b - ns, link.score);
  }
  return MatchResult::Ranked(source_table, target_table, std::move(cells));
}

}  // namespace valentine
