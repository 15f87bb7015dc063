#ifndef VALENTINE_MATCHERS_SEMPROP_H_
#define VALENTINE_MATCHERS_SEMPROP_H_

/// \file semprop.h
/// SemProp (Fernandez, Mansour et al. — ICDE 2018, the matcher inside the
/// Aurum discovery system): links attribute and table names to ontology
/// classes through word-embedding similarity, relates attributes that
/// link (transitively) to the same or nearby classes, and forwards
/// everything else to a syntactic matcher over value sets.
///
/// Substitution note (DESIGN.md §3): pre-trained word vectors are
/// replaced with deterministic char-n-gram hash embeddings — which, like
/// real general-corpus vectors on a specialized domain, capture surface
/// form but not domain semantics. This reproduces the paper's finding
/// that SemProp's pre-trained embeddings are unreliable on ChEMBL-like
/// data.

#include "knowledge/hash_embedding.h"
#include "knowledge/ontology.h"
#include "matchers/matcher.h"

namespace valentine {

/// SemProp parameters (paper Table II).
struct SemPropOptions {
  double minhash_threshold = 0.25;      ///< syntactic MinHash cutoff
  double semantic_threshold = 0.5;      ///< name-to-class link cutoff
  double coherent_group_threshold = 0.3;///< coherent-group score cutoff
  size_t embedding_dim = 64;
  size_t minhash_hashes = 128;
  /// Cap on distinct values hashed per column (0 = unlimited).
  size_t max_values = 1000;
  /// Ontology classes within this hierarchy distance count as related.
  size_t max_class_distance = 2;
};

/// \brief SemProp hybrid semantic + syntactic matcher.
class SemPropMatcher : public ColumnMatcher {
 public:
  /// \param ontology domain ontology the semantic matcher links against;
  ///   may be nullptr, in which case only the syntactic stage runs (the
  ///   paper could evaluate SemProp only on ChEMBL for the same reason).
  explicit SemPropMatcher(const Ontology* ontology,
                          SemPropOptions options = {})
      : ontology_(ontology),
        options_(options),
        embedder_(options.embedding_dim, /*seed=*/101) {}

  std::string Name() const override { return "SemProp"; }
  MatcherCategory Category() const override {
    return MatcherCategory::kHybrid;
  }
  std::vector<MatchType> Capabilities() const override {
    return {MatchType::kAttributeOverlap, MatchType::kValueOverlap,
            MatchType::kEmbeddings};
  }
  /// Artifact: per-column best ontology links before the semantic
  /// threshold (the expensive embedding sweep) and MinHash signatures.
  /// Keyed on the ontology fingerprint — links are a function of the
  /// knowledge base, not just the table. The threshold is a score-stage
  /// cutoff, so one artifact serves every semantic_threshold.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const override;

  /// Best ontology class link for a name: (class index, cosine), or
  /// (npos, 0) when nothing clears the semantic threshold.
  std::pair<size_t, double> LinkToOntology(const std::string& name) const;

 private:
  /// The embedding sweep behind LinkToOntology, before the semantic
  /// threshold: (class index, cosine) of the most similar class label,
  /// or (npos, 0) when there is no ontology or no positive similarity.
  std::pair<size_t, double> BestOntologyLink(const std::string& name) const;

  const Ontology* ontology_;
  SemPropOptions options_;
  HashEmbedder embedder_;
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_SEMPROP_H_
