#include "matchers/semprop.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "stats/minhash.h"
#include "text/tokenizer.h"

namespace valentine {

namespace {

constexpr size_t kNoLink = static_cast<size_t>(-1);

/// A raw best link cut at the semantic threshold: links below it count
/// as no link at all.
std::pair<size_t, double> CutLink(const std::pair<size_t, double>& link,
                                  double threshold) {
  if (link.second < threshold) return {kNoLink, 0.0};
  return link;
}

}  // namespace

std::pair<size_t, double> SemPropMatcher::BestOntologyLink(
    const std::string& name) const {
  if (ontology_ == nullptr) return {kNoLink, 0.0};
  Embedding name_emb = embedder_.EmbedText(JoinTokens(
      TokenizeIdentifier(name)));
  size_t best_class = kNoLink;
  double best_sim = 0.0;
  for (size_t c = 0; c < ontology_->num_classes(); ++c) {
    for (const auto& label : ontology_->cls(c).labels) {
      double sim = CosineSimilarity(name_emb, embedder_.EmbedText(label));
      if (sim > best_sim) {
        best_sim = sim;
        best_class = c;
      }
    }
  }
  return {best_class, best_sim};
}

std::pair<size_t, double> SemPropMatcher::LinkToOntology(
    const std::string& name) const {
  return CutLink(BestOntologyLink(name), options_.semantic_threshold);
}

namespace {

/// Per-table artifact: the expensive embedding-based ontology links,
/// before the semantic threshold, and the MinHash signatures. The
/// threshold and coherence are applied at score time (cheap folds over
/// one vector).
struct SemPropPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<std::pair<size_t, double>> links;
  std::vector<MinHashSignature> sigs;
};

}  // namespace

std::string SemPropMatcher::PrepareKey() const {
  // Links depend on the ontology content and the embedder dimension
  // (seed is fixed); signatures depend on the value cap and permutation
  // count. The remaining options, the semantic threshold included, are
  // score-stage.
  return "ont=" +
         (ontology_ != nullptr ? std::to_string(ontology_->Fingerprint())
                               : "none") +
         ";dim=" + std::to_string(options_.embedding_dim) +
         ";cap=" + std::to_string(options_.max_values) +
         ";hashes=" + std::to_string(options_.minhash_hashes);
}

Result<PreparedTablePtr> SemPropMatcher::Prepare(
    const Table& table, const MatchContext& context) const {
  auto prepared =
      std::make_shared<SemPropPrepared>(&table, Name(), PrepareKey());
  const size_t n = table.num_columns();

  // --- Semantic stage: link every column name to an ontology class. ---
  prepared->links.assign(n, {kNoLink, 0.0});
  for (size_t i = 0; i < n; ++i) {
    VALENTINE_RETURN_NOT_OK(context.Check("semprop ontology linking"));
    prepared->links[i] = BestOntologyLink(table.column(i).name());
  }

  // --- Syntactic stage inputs: MinHash signatures over value sets. ---
  prepared->sigs.reserve(n);
  for (const Column& c : table.columns()) {
    // Cap in first-seen row order, never by iterating the unordered set:
    // hash order would make the kept subset — and the MinHash Jaccard
    // estimates built on it — nondeterministic across runs/platforms.
    std::vector<std::string> distinct = c.DistinctStrings();
    if (options_.max_values > 0 && distinct.size() > options_.max_values) {
      distinct.resize(options_.max_values);
    }
    prepared->sigs.push_back(MinHashSignature::Build(
        std::unordered_set<std::string>(distinct.begin(), distinct.end()),
        options_.minhash_hashes));
  }
  return PreparedTablePtr(std::move(prepared));
}

Result<MatchResult> SemPropMatcher::Score(const PreparedTable& source,
                                          const PreparedTable& target,
                                          const PreparedPair* /*pair*/,
                                          const MatchContext& context) const {
  const auto* src = dynamic_cast<const SemPropPrepared*>(&source);
  const auto* tgt = dynamic_cast<const SemPropPrepared*>(&target);
  if (src == nullptr || tgt == nullptr ||
      src->prepare_key() != PrepareKey() ||
      tgt->prepare_key() != PrepareKey()) {
    return MatchWithContext(source.table(), target.table(), context);
  }
  VALENTINE_RETURN_NOT_OK(context.Check("semprop score"));

  const Table& source_table = src->table();
  const Table& target_table = tgt->table();
  auto cut = [&](const std::vector<std::pair<size_t, double>>& raw) {
    std::vector<std::pair<size_t, double>> links;
    links.reserve(raw.size());
    for (const auto& link : raw) {
      links.push_back(CutLink(link, options_.semantic_threshold));
    }
    return links;
  };
  const std::vector<std::pair<size_t, double>> src_links = cut(src->links);
  const std::vector<std::pair<size_t, double>> tgt_links = cut(tgt->links);
  const size_t ns = src_links.size();
  const size_t nt = tgt_links.size();

  // Coherent-group score per table: the fraction of linked columns.
  // A table whose links are scattered/absent gets its semantic matches
  // suppressed (below the coherence threshold the links are untrusted).
  auto coherence = [&](const std::vector<std::pair<size_t, double>>& links) {
    if (links.empty()) return 0.0;
    size_t linked = 0;
    for (const auto& [cls, sim] : links) {
      if (cls != kNoLink) ++linked;
    }
    return static_cast<double>(linked) / static_cast<double>(links.size());
  };
  bool coherent = coherence(src_links) >= options_.coherent_group_threshold &&
                  coherence(tgt_links) >= options_.coherent_group_threshold;

  std::vector<std::vector<double>> sem_score(ns, std::vector<double>(nt, 0.0));
  if (coherent && ontology_ != nullptr) {
    for (size_t i = 0; i < ns; ++i) {
      if (src_links[i].first == kNoLink) continue;
      for (size_t j = 0; j < nt; ++j) {
        if (tgt_links[j].first == kNoLink) continue;
        auto dist = ontology_->HierarchyDistance(src_links[i].first,
                                                 tgt_links[j].first);
        if (!dist || *dist > options_.max_class_distance) continue;
        double link_strength =
            0.5 * (src_links[i].second + tgt_links[j].second);
        // Nearby-but-not-identical classes relate more weakly.
        double decay = 1.0 / (1.0 + static_cast<double>(*dist));
        sem_score[i][j] = link_strength * decay;
      }
    }
  }

  std::vector<ScoredCell> cells;
  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = 0; j < nt; ++j) {
      double score = sem_score[i][j];
      if (score <= 0.0) {
        double jac = src->sigs[i].EstimateJaccard(tgt->sigs[j]);
        if (jac >= options_.minhash_threshold) {
          // Syntactic matches rank below semantic ones, as in Aurum.
          score = 0.5 * jac;
        }
      }
      if (score > 0.0) cells.emplace_back(i, j, score);
    }
  }
  return MatchResult::Ranked(source_table, target_table, std::move(cells));
}

}  // namespace valentine
