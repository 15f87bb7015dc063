#ifndef VALENTINE_MATCHERS_CUPID_H_
#define VALENTINE_MATCHERS_CUPID_H_

/// \file cupid.h
/// Cupid (Madhavan, Bernstein, Rahm — VLDB 2001): a schema-based matcher
/// combining linguistic and structural similarity over schema trees.
///
/// For flat relational tables the schema tree is two levels deep
/// (table -> columns), which is also how the Valentine paper deployed it
/// (they cap w_struct at 0.6 because relations lack XML-style nesting).
/// The linguistic matcher tokenizes and normalizes names, expands
/// abbreviations, stems, and scores token pairs via thesaurus relatedness
/// with a string-similarity fallback; the structural matcher runs the
/// TreeMatch leaf/ancestor mutual-reinforcement loop.

#include "knowledge/thesaurus.h"
#include "matchers/matcher.h"

namespace valentine {

/// Cupid parameters (paper Table II plus the TreeMatch constants from the
/// original paper, which Valentine leaves at their defaults).
struct CupidOptions {
  double leaf_w_struct = 0.2;  ///< structural weight at leaves [0, 0.6]
  double w_struct = 0.2;       ///< structural weight at inner nodes [0, 0.6]
  double th_accept = 0.5;      ///< strong-link threshold [0.3, 0.8]
  double th_high = 0.6;        ///< ancestor reinforcement trigger
  double th_low = 0.35;        ///< ancestor penalty trigger
  double c_inc = 1.2;          ///< reinforcement factor
  double c_dec = 0.9;          ///< penalty factor
};

/// \brief Cupid schema-based matcher.
class CupidMatcher : public ColumnMatcher {
 public:
  explicit CupidMatcher(CupidOptions options = {},
                        const Thesaurus* thesaurus = nullptr)
      : options_(options),
        thesaurus_(thesaurus ? thesaurus : &Thesaurus::Default()) {}

  std::string Name() const override { return "Cupid"; }
  MatcherCategory Category() const override {
    return MatcherCategory::kSchemaBased;
  }
  std::vector<MatchType> Capabilities() const override {
    return {MatchType::kAttributeOverlap, MatchType::kSemanticOverlap,
            MatchType::kDataType};
  }
  /// Artifact: normalized (tokenized, abbreviation-expanded, stemmed)
  /// name tokens per column plus the table name's tokens, each with its
  /// thesaurus lookups resolved. Keyed on the thesaurus fingerprint;
  /// every TreeMatch parameter is score-stage, so the whole Cupid grid
  /// shares one artifact per table.
  std::string PrepareKey() const override;
  [[nodiscard]] Result<PreparedTablePtr> Prepare(
      const Table& table, const TableProfile* profile,
      const MatchContext& context) const override;
  /// Pair artifact: the linguistic similarity of every column-name pair
  /// and of the two table names. It depends on no TreeMatch parameter,
  /// so the whole grid shares one per table pair.
  [[nodiscard]] Result<PreparedPairPtr> PreparePair(
      const PreparedTable& source, const PreparedTable& target,
      const MatchContext& context) const override;
  [[nodiscard]] Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const override;

  /// Linguistic similarity between two attribute names (exposed for
  /// tests and ablations): tokenize, expand, stem, thesaurus + string
  /// best-match average.
  double LinguisticSimilarity(const std::string& a,
                              const std::string& b) const;

  /// Data-type compatibility factor in [0, 1].
  static double TypeCompatibility(DataType a, DataType b);

 private:
  const CupidOptions options_;
  const Thesaurus* const thesaurus_;
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_CUPID_H_
