#include "matchers/similarity_flooding.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "graph/digraph.h"
#include "text/string_similarity.h"
#include "text/tokenizer.h"

namespace valentine {

namespace {

constexpr const char* kColumnKind = "column";
constexpr const char* kTableKind = "table";
constexpr const char* kTypeKind = "type";

/// Builds the schema graph: table --column--> attr --type--> datatype.
Digraph BuildSchemaGraph(const Table& table) {
  Digraph g;
  NodeId t = g.AddNode(table.name(), kTableKind);
  for (const Column& c : table.columns()) {
    NodeId col = g.AddNode(c.name(), kColumnKind);
    g.AddEdge(t, col, "column");
    NodeId type = g.GetOrAddNode(DataTypeName(c.type()), kTypeKind);
    g.AddEdge(col, type, "type");
  }
  return g;
}

/// Initial similarity between two schema-graph nodes.
double InitialSimilarity(const Digraph& a, NodeId na, const Digraph& b,
                         NodeId nb) {
  if (a.kind(na) != b.kind(nb)) return 0.0;
  if (a.kind(na) == kTypeKind) {
    return a.name(na) == b.name(nb) ? 1.0 : 0.0;
  }
  return LevenshteinSimilarity(ToLower(a.name(na)), ToLower(b.name(nb)));
}

/// Per-table artifact: the schema digraph (a value type, so the
/// artifact owns its copy outright).
struct SfPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  Digraph graph;
};

}  // namespace

std::string SimilarityFloodingMatcher::PrepareKey() const {
  // The schema graph depends only on the table; every option is
  // score-stage.
  return "";
}

Result<PreparedTablePtr> SimilarityFloodingMatcher::Prepare(
    const Table& table, const TableProfile* profile,
    const MatchContext& context) const {
  (void)profile;  // schema-only: nothing a value profile could serve
  VALENTINE_RETURN_NOT_OK(context.Check("similarity-flooding prepare"));
  auto prepared = std::make_shared<SfPrepared>(&table, Name(), PrepareKey());
  prepared->graph = BuildSchemaGraph(table);
  return PreparedTablePtr(std::move(prepared));
}

Result<MatchResult> SimilarityFloodingMatcher::Score(
    const PreparedTable& source, const PreparedTable& target,
    const PreparedPair* /*pair*/, const MatchContext& context) const {
  const auto* src = dynamic_cast<const SfPrepared*>(&source);
  const auto* tgt = dynamic_cast<const SfPrepared*>(&target);
  if (src == nullptr || tgt == nullptr ||
      src->prepare_key() != PrepareKey() ||
      tgt->prepare_key() != PrepareKey()) {
    return MatchWithContext(source.table(), target.table(), context);
  }
  const Table& source_table = src->table();
  const Table& target_table = tgt->table();
  const Digraph& ga = src->graph;
  const Digraph& gb = tgt->graph;
  const size_t na = ga.num_nodes();
  const size_t nb = gb.num_nodes();
  const size_t n_pairs = na * nb;
  auto pair_id = [&](NodeId x, NodeId y) { return x * nb + y; };

  // --- Initial similarities σ0. ---
  std::vector<double> sigma0(n_pairs, 0.0);
  for (NodeId x = 0; x < na; ++x) {
    for (NodeId y = 0; y < nb; ++y) {
      sigma0[pair_id(x, y)] = InitialSimilarity(ga, x, gb, y);
    }
  }

  // --- Pairwise connectivity + propagation graph. ---
  // For every pair of equal-labeled edges (x->x2 in A, y->y2 in B) the
  // map pairs (x,y) and (x2,y2) reinforce each other in both directions.
  // Inverse-average coefficient: the weight leaving (x,y) toward
  // (x2,y2) for label l is 2 / (outdeg_l(x) + outdeg_l(y)).
  struct PropEdge {
    size_t from;
    size_t to;
    double weight;
  };
  std::vector<PropEdge> prop;
  for (NodeId x = 0; x < na; ++x) {
    for (const auto& ea : ga.OutEdges(x)) {
      for (NodeId y = 0; y < nb; ++y) {
        for (const auto& eb : gb.OutEdges(y)) {
          if (ea.label != eb.label) continue;
          size_t p = pair_id(x, y);
          size_t q = pair_id(ea.target, eb.target);
          double out_avg = 0.5 * (ga.OutDegreeWithLabel(x, ea.label) +
                                  gb.OutDegreeWithLabel(y, ea.label));
          double in_avg =
              0.5 * (ga.InDegreeWithLabel(ea.target, ea.label) +
                     gb.InDegreeWithLabel(eb.target, ea.label));
          // Forward flooding p -> q and backward q -> p.
          prop.push_back({p, q, 1.0 / out_avg});
          prop.push_back({q, p, 1.0 / in_avg});
        }
      }
    }
  }

  // --- Fixpoint iteration. ---
  std::vector<double> sigma = sigma0;
  std::vector<double> phi(n_pairs, 0.0);
  std::vector<double> next(n_pairs, 0.0);
  std::vector<double> basis(n_pairs, 0.0);
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    VALENTINE_RETURN_NOT_OK(context.Check("similarity-flooding fixpoint"));
    // Propagation input depends on the formula.
    switch (options_.formula) {
      case SfFormula::kBasic:
      case SfFormula::kA:
        basis = sigma;
        break;
      case SfFormula::kB:
      case SfFormula::kC:
        for (size_t i = 0; i < n_pairs; ++i) basis[i] = sigma0[i] + sigma[i];
        break;
    }
    std::fill(phi.begin(), phi.end(), 0.0);
    for (const PropEdge& e : prop) phi[e.to] += basis[e.from] * e.weight;

    switch (options_.formula) {
      case SfFormula::kBasic:
        for (size_t i = 0; i < n_pairs; ++i) next[i] = sigma[i] + phi[i];
        break;
      case SfFormula::kA:
        for (size_t i = 0; i < n_pairs; ++i) next[i] = sigma0[i] + phi[i];
        break;
      case SfFormula::kB:
        for (size_t i = 0; i < n_pairs; ++i) next[i] = phi[i];
        break;
      case SfFormula::kC:
        for (size_t i = 0; i < n_pairs; ++i) next[i] = basis[i] + phi[i];
        break;
    }
    double max_val = 0.0;
    for (double v : next) max_val = std::max(max_val, v);
    if (max_val > 0.0) {
      for (double& v : next) v /= max_val;
    }
    double residual = 0.0;
    for (size_t i = 0; i < n_pairs; ++i) {
      residual += (next[i] - sigma[i]) * (next[i] - sigma[i]);
    }
    sigma.swap(next);
    if (std::sqrt(residual) < options_.epsilon) break;
  }

  // --- Filter: keep column-column map pairs. ---
  std::vector<NodeId> src_cols, tgt_cols;
  for (NodeId x = 0; x < na; ++x) {
    if (ga.kind(x) == kColumnKind) src_cols.push_back(x);
  }
  for (NodeId y = 0; y < nb; ++y) {
    if (gb.kind(y) == kColumnKind) tgt_cols.push_back(y);
  }
  auto sim_of = [&](size_t si, size_t tj) {
    return sigma[pair_id(src_cols[si], tgt_cols[tj])];
  };

  // Column nodes are added in column order (BuildSchemaGraph), so
  // src_cols[si] is column si's node and cells index the tables.
  std::vector<ScoredCell> cells;
  auto add_pair = [&](size_t si, size_t tj) {
    cells.emplace_back(si, tj, sim_of(si, tj));
  };

  switch (options_.filter) {
    case SfFilter::kNone:
      for (size_t si = 0; si < src_cols.size(); ++si) {
        for (size_t tj = 0; tj < tgt_cols.size(); ++tj) add_pair(si, tj);
      }
      break;
    case SfFilter::kStableMarriage: {
      // Gale-Shapley with source columns proposing.
      const size_t ns_c = src_cols.size();
      const size_t nt_c = tgt_cols.size();
      std::vector<std::vector<size_t>> prefs(ns_c);
      for (size_t si = 0; si < ns_c; ++si) {
        prefs[si].resize(nt_c);
        for (size_t tj = 0; tj < nt_c; ++tj) prefs[si][tj] = tj;
        std::sort(prefs[si].begin(), prefs[si].end(),
                  [&](size_t a, size_t b) {
                    if (sim_of(si, a) != sim_of(si, b)) {
                      return sim_of(si, a) > sim_of(si, b);
                    }
                    return a < b;
                  });
      }
      std::vector<size_t> next_proposal(ns_c, 0);
      std::vector<long> engaged_to(nt_c, -1);  // target -> source
      std::vector<size_t> free_sources;
      for (size_t si = 0; si < ns_c; ++si) free_sources.push_back(si);
      while (!free_sources.empty()) {
        size_t si = free_sources.back();
        if (next_proposal[si] >= nt_c) {
          free_sources.pop_back();  // exhausted all candidates
          continue;
        }
        size_t tj = prefs[si][next_proposal[si]++];
        if (engaged_to[tj] < 0) {
          engaged_to[tj] = static_cast<long>(si);
          free_sources.pop_back();
        } else if (sim_of(si, tj) >
                   sim_of(static_cast<size_t>(engaged_to[tj]), tj)) {
          free_sources.pop_back();
          free_sources.push_back(static_cast<size_t>(engaged_to[tj]));
          engaged_to[tj] = static_cast<long>(si);
        }
      }
      for (size_t tj = 0; tj < nt_c; ++tj) {
        if (engaged_to[tj] >= 0) {
          add_pair(static_cast<size_t>(engaged_to[tj]), tj);
        }
      }
      break;
    }
    case SfFilter::kPerfectionist:
      // Keep (s, t) only when each is the other's unique best.
      for (size_t si = 0; si < src_cols.size(); ++si) {
        size_t best_tj = 0;
        for (size_t tj = 1; tj < tgt_cols.size(); ++tj) {
          if (sim_of(si, tj) > sim_of(si, best_tj)) best_tj = tj;
        }
        size_t best_si = 0;
        for (size_t sk = 1; sk < src_cols.size(); ++sk) {
          if (sim_of(sk, best_tj) > sim_of(best_si, best_tj)) best_si = sk;
        }
        if (best_si == si) add_pair(si, best_tj);
      }
      break;
  }
  return MatchResult::Ranked(source_table, target_table, std::move(cells));
}

}  // namespace valentine
