#ifndef VALENTINE_MATCHERS_EMBDI_H_
#define VALENTINE_MATCHERS_EMBDI_H_

/// \file embdi.h
/// EmbDI (Cappuzzo, Papotti, Thirumuruganathan — SIGMOD 2020): local
/// relational embeddings for data integration.
///
/// Both tables are compiled into one heterogeneous graph with three node
/// classes — record ids (RID), attribute ids (CID), and values — where a
/// cell links its RID, its CID, and its value node. Random walks over
/// this graph become "sentences"; a word2vec model trained on them embeds
/// every node; columns match by cosine similarity of their CID vectors.
/// Value nodes are shared across tables, so instance overlap is the
/// bridge that pulls corresponding CIDs together — and, as the paper
/// observes, the method degrades when overlap is scarce.

#include "matchers/matcher.h"

namespace valentine {

/// Which embedding trainer consumes the random-walk sentences.
enum class EmbdiTraining {
  kWord2Vec,  ///< skip-gram + negative sampling (the paper's setting)
  kPpmi,      ///< PPMI co-occurrence + random projection (ablation)
};

/// EmbDI parameters (paper Table II: word2vec, sentence_length 60,
/// window_size 3, n_dimensions 300). Dimensions and walk counts default
/// lower here for bench runtimes (EXPERIMENTS.md); shapes are preserved.
struct EmbdiOptions {
  EmbdiTraining training = EmbdiTraining::kWord2Vec;
  size_t sentence_length = 60;
  size_t window_size = 3;
  size_t dimensions = 64;
  size_t walks_per_node = 5;   ///< random walks started per graph node
  size_t epochs = 3;
  uint64_t seed = 1234;
  /// Cap on rows sampled per table when building the graph (0 = all).
  size_t max_rows = 500;
};

/// \brief EmbDI local-embedding matcher.
class EmbdiMatcher : public ColumnMatcher {
 public:
  explicit EmbdiMatcher(EmbdiOptions options = {}) : options_(options) {}

  std::string Name() const override { return "EmbDI"; }
  MatcherCategory Category() const override {
    return MatcherCategory::kHybrid;
  }
  std::vector<MatchType> Capabilities() const override {
    return {MatchType::kEmbeddings};
  }
  /// Artifact: a prefix-free replay fragment (column names plus the
  /// non-null cells of the sampled rows). The joint graph, walks, and
  /// training are inherently pair-level, so they stay in Score; the
  /// fragment exists so each table's rows are extracted once and the
  /// replay reproduces the exact node-insertion order of the monolithic
  /// build. Keyed on the row cap; every other option is score-stage.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const override;

 private:
  EmbdiOptions options_;
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_EMBDI_H_
