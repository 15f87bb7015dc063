#ifndef VALENTINE_MATCHERS_COMA_H_
#define VALENTINE_MATCHERS_COMA_H_

/// \file coma.h
/// COMA (Do & Rahm — VLDB 2002) and its instance-based extension
/// (Engmann & Massmann, BTW 2007): a *composite* matcher that runs a
/// library of first-line matchers and combines their similarity cubes
/// through pluggable aggregation, direction, and selection strategies —
/// the combination machinery is COMA's actual contribution.
///
/// Substitution note (DESIGN.md §3): the paper uses the closed-source
/// COMA 3.0 Community Edition jar; this is a from-scratch composite
/// matcher covering the same matcher categories (name trigram, name
/// token-edit, synonyms via thesaurus, name path, affix, data type; the
/// instance strategy adds value-overlap and instance-profile matchers)
/// and the same strategy axes:
///
///  * aggregation: Max / Min / Average / Weighted (default Weighted);
///  * direction: Forward / Backward / Both;
///  * selection: MaxN / MaxDelta / Threshold / OneToOne / All
///    (default OneToOne, matching COMA 3.0's best-counterpart
///    selection — the behaviour that missed the paper's ING#2 n-m
///    matches).
///
/// Prepare derives every name-side input of the first-line matchers once
/// per column; Score only compares those inputs per column pair (see
/// PrepareKey below and DESIGN.md §9).

#include <vector>

#include "knowledge/thesaurus.h"
#include "matchers/matcher.h"

namespace valentine {

/// Strategy selector (paper Table II: strategy in {schema, instances}).
enum class ComaStrategy {
  kSchema,
  kInstances,
};

/// How the first-line matcher scores of a column pair are combined.
enum class ComaAggregation {
  kMax,
  kMin,
  kAverage,   ///< unweighted mean
  kWeighted,  ///< default COMA composite: weighted mean
};

/// Which side's candidate ranking drives selection.
enum class ComaDirection {
  kForward,   ///< per source column
  kBackward,  ///< per target column
  kBoth,      ///< pair must survive both directions
};

/// Which aggregated pairs make it into the final match result.
enum class ComaSelection {
  kAll,       ///< every pair above the threshold, ranked
  kMaxN,      ///< top-n per direction
  kMaxDelta,  ///< within delta of the direction's best score
  kOneToOne,  ///< greedy best-counterpart selection
};

/// COMA parameters. The default selection is kAll, matching the paper's
/// configuration (§VI-B: "we allow the output to include any found
/// element pair ... accept similarity threshold ... 0"). kOneToOne
/// reproduces the best-counterpart behaviour the paper observed as a
/// COMA 3.0 bug on n-m ground truth (ING#2).
struct ComaOptions {
  ComaStrategy strategy = ComaStrategy::kSchema;
  ComaAggregation aggregation = ComaAggregation::kWeighted;
  ComaDirection direction = ComaDirection::kBoth;
  ComaSelection selection = ComaSelection::kAll;
  /// Accept-similarity threshold on the combined score; 0 keeps all
  /// pairs (the paper's configuration).
  double threshold = 0.0;
  /// Candidates kept per element under kMaxN.
  size_t max_n = 2;
  /// Score slack under kMaxDelta.
  double delta = 0.05;
  /// Cap on distinct values per column in the value-overlap matcher.
  size_t max_distinct_values = 1000;
  /// Optional extra first-line matchers (off by default so the paper's
  /// tuned composite is unchanged; flip on for experiments).
  bool use_soundex = false;      ///< phonetic name matcher
  bool use_tfidf_tokens = false; ///< TF-IDF cosine over value tokens
                                 ///< (instance strategy only)
};

/// One first-line matcher's verdict on a column pair.
struct ComaComponentScore {
  const char* matcher;
  double score;
  double weight;
};

/// \brief COMA composite matcher (schema or instance strategy).
class ComaMatcher : public ColumnMatcher {
 public:
  explicit ComaMatcher(ComaOptions options = {},
                       const Thesaurus* thesaurus = nullptr)
      : options_(options),
        thesaurus_(thesaurus ? thesaurus : &Thesaurus::Default()) {}

  std::string Name() const override {
    return options_.strategy == ComaStrategy::kSchema ? "COMA-Schema"
                                                      : "COMA-Instances";
  }
  MatcherCategory Category() const override {
    return options_.strategy == ComaStrategy::kSchema
               ? MatcherCategory::kSchemaBased
               : MatcherCategory::kInstanceBased;
  }
  std::vector<MatchType> Capabilities() const override {
    std::vector<MatchType> caps = {MatchType::kAttributeOverlap,
                                   MatchType::kSemanticOverlap,
                                   MatchType::kDataType};
    if (options_.strategy == ComaStrategy::kInstances) {
      caps.push_back(MatchType::kValueOverlap);
      caps.push_back(MatchType::kDistribution);
    }
    return caps;
  }
  /// Artifact: every name-derived input of the first-line matchers, per
  /// column (packed name and path trigrams, identifier tokens and their
  /// Soundex codes, thesaurus-expanded tokens with stems, the
  /// separator-free name), so Score does no per-pair string work; the
  /// instance strategy adds capped value sets, text profiles, numeric
  /// stats, and numeric fractions. Abbreviation expansion happens in Prepare, so the key
  /// embeds the thesaurus's memoized fingerprint next to the value cap
  /// and the strategy.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const override;

  /// The full per-matcher score breakdown for one column pair (schema
  /// part only — instance matchers need the whole columns). Exposed for
  /// tests and the strategy ablation. This and the helpers below derive
  /// the per-column inputs Prepare would and run Score's kernels on them.
  std::vector<ComaComponentScore> SchemaComponentScores(
      const std::string& source_table, const Column& a,
      const std::string& target_table, const Column& b) const;

  /// Individual first-line matchers, exposed for tests and ablations.
  double NameTrigramSim(const std::string& a, const std::string& b) const;
  double NameSynonymSim(const std::string& a, const std::string& b) const;
  double NamePathSim(const std::string& table_a, const std::string& col_a,
                     const std::string& table_b,
                     const std::string& col_b) const;
  /// Affix matcher: longest common substring relative to the shorter
  /// name — robust to table-name prefixes and truncating abbreviations.
  static double NameAffixSim(const std::string& a, const std::string& b);
  static double DataTypeSim(DataType a, DataType b);

  /// Combines component scores under an aggregation strategy (exposed
  /// for tests).
  static double Aggregate(const std::vector<ComaComponentScore>& scores,
                          ComaAggregation aggregation);

 private:
  ComaOptions options_;
  const Thesaurus* thesaurus_;
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_COMA_H_
