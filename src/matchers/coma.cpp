#include "matchers/coma.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stats/descriptive.h"
#include "text/stemmer.h"
#include "text/string_similarity.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace valentine {

namespace {

/// One identifier token for the synonym matcher: the abbreviation-
/// expanded surface form (the thesaurus stores surface forms) and its
/// stem (plural folding), both resolved against the thesaurus.
struct SynonymToken {
  Thesaurus::Term raw;
  Thesaurus::Term stem;
};

/// The name-side inputs of COMA's first-line matchers for one column.
/// Prepare derives them once per column, so scoring a column pair does
/// no lower-casing, tokenization, thesaurus expansion or allocation.
struct ColumnNames {
  /// TrigramCodes of lower(name) and of lower(table) + "." + lower(name).
  std::vector<uint32_t> name_grams;
  std::vector<uint32_t> path_grams;
  std::vector<std::string> tokens;           ///< identifier tokens
  std::vector<std::string> soundex;          ///< Soundex code per token
  std::vector<SynonymToken> synonym_tokens;  ///< expanded + stemmed tokens
  std::string affix;  ///< lower(name) without '_', '-' and ' '
  DataType type = DataType::kString;
};

/// Per-Score scratch reused across column pairs.
struct ComaScratch {
  std::vector<ComaComponentScore> scores;
  std::vector<double> best_for_b;  ///< synonym matcher, per b token
};

std::string PathForm(const std::string& table, const std::string& column) {
  return ToLower(table) + "." + ToLower(column);
}

/// Separator-free lower-case form, so "addr_line" and "addrline" agree.
std::string AffixForm(const std::string& name) {
  std::string out;
  for (char c : ToLower(name)) {
    if (c != '_' && c != '-' && c != ' ') out.push_back(c);
  }
  return out;
}

std::vector<SynonymToken> SynonymTokens(
    const std::vector<std::string>& tokens, const Thesaurus& thesaurus) {
  std::vector<SynonymToken> out;
  out.reserve(tokens.size());
  for (const std::string& t : tokens) {
    const std::string raw = thesaurus.Expand(t);
    out.push_back({thesaurus.Resolve(raw), thesaurus.Resolve(StemToken(raw))});
  }
  return out;
}

ColumnNames BuildColumnNames(const std::string& table_name,
                             const Column& column,
                             std::vector<std::string> tokens,
                             const Thesaurus& thesaurus) {
  ColumnNames names;
  names.name_grams = TrigramCodes(ToLower(column.name()));
  names.path_grams = TrigramCodes(PathForm(table_name, column.name()));
  names.synonym_tokens = SynonymTokens(tokens, thesaurus);
  names.soundex.reserve(tokens.size());
  for (const std::string& t : tokens) names.soundex.push_back(Soundex(t));
  names.tokens = std::move(tokens);
  names.affix = AffixForm(column.name());
  names.type = column.type();
  return names;
}

/// Symmetric best-match average of token relatedness. Token similarity
/// is symmetric, so one sweep over the token pairs serves both
/// directions: the row maxima give a→b and the column maxima b→a.
double SynonymSim(const std::vector<SynonymToken>& ta,
                  const std::vector<SynonymToken>& tb,
                  std::vector<double>* best_for_b) {
  if (ta.empty() || tb.empty()) return 0.0;
  auto token_sim = [](const SynonymToken& x, const SynonymToken& y) {
    if (x.stem.word == y.stem.word) return 1.0;
    return std::max(Thesaurus::Relatedness(x.raw, y.raw),
                    Thesaurus::Relatedness(x.stem, y.stem));
  };
  best_for_b->assign(tb.size(), 0.0);
  double a_total = 0.0;
  for (const SynonymToken& x : ta) {
    double best = 0.0;
    for (size_t j = 0; j < tb.size(); ++j) {
      const double sim = token_sim(x, tb[j]);
      best = std::max(best, sim);
      (*best_for_b)[j] = std::max((*best_for_b)[j], sim);
    }
    a_total += best;
  }
  double b_total = 0.0;
  for (double best : *best_for_b) b_total += best;
  return 0.5 * (a_total / static_cast<double>(ta.size()) +
                b_total / static_cast<double>(tb.size()));
}

/// Affix matcher over AffixForms: longest common substring relative to
/// the shorter name.
double AffixSim(const std::string& a, const std::string& b) {
  if (a.empty() || b.empty()) return 0.0;
  return static_cast<double>(LongestCommonSubstring(a, b)) /
         static_cast<double>(std::min(a.size(), b.size()));
}

/// The schema-side first-line matchers on one column pair, appended to
/// `scratch->scores` (which the caller clears).
void SchemaComponents(const ColumnNames& a, const ColumnNames& b,
                      bool use_soundex, ComaScratch* scratch) {
  auto& scores = scratch->scores;
  scores.push_back(
      {"name_trigram", TrigramCodeSimilarity(a.name_grams, b.name_grams),
       1.5});
  scores.push_back({"name_synonym",
                    SynonymSim(a.synonym_tokens, b.synonym_tokens,
                               &scratch->best_for_b),
                    2.0});
  // Token-level edit-distance measure (COMA's Name matcher combines
  // several string measures, not only n-grams).
  scores.push_back(
      {"name_token_edit",
       BestMatchAverage(a.tokens, b.tokens, &JaroWinklerSimilarity), 2.0});
  scores.push_back(
      {"name_path", TrigramCodeSimilarity(a.path_grams, b.path_grams), 1.0});
  scores.push_back({"name_affix", AffixSim(a.affix, b.affix), 1.5});
  scores.push_back(
      {"data_type", ComaMatcher::DataTypeSim(a.type, b.type), 1.0});
  if (use_soundex) {
    scores.push_back(
        {"name_soundex",
         BestMatchAverage(a.soundex, b.soundex, &SoundexCodeSimilarity),
         0.5});
  }
}

}  // namespace

double ComaMatcher::NameTrigramSim(const std::string& a,
                                   const std::string& b) const {
  return TrigramSimilarity(ToLower(a), ToLower(b));
}

double ComaMatcher::NameSynonymSim(const std::string& a,
                                   const std::string& b) const {
  std::vector<double> best_for_b;
  return SynonymSim(SynonymTokens(TokenizeIdentifier(a), *thesaurus_),
                    SynonymTokens(TokenizeIdentifier(b), *thesaurus_),
                    &best_for_b);
}

double ComaMatcher::NamePathSim(const std::string& table_a,
                                const std::string& col_a,
                                const std::string& table_b,
                                const std::string& col_b) const {
  return TrigramSimilarity(PathForm(table_a, col_a), PathForm(table_b, col_b));
}

double ComaMatcher::NameAffixSim(const std::string& a, const std::string& b) {
  return AffixSim(AffixForm(a), AffixForm(b));
}

double ComaMatcher::DataTypeSim(DataType a, DataType b) {
  if (a == b) return 1.0;
  if (TypesCompatible(a, b)) return 0.7;
  return 0.0;
}

std::vector<ComaComponentScore> ComaMatcher::SchemaComponentScores(
    const std::string& source_table, const Column& a,
    const std::string& target_table, const Column& b) const {
  ComaScratch scratch;
  SchemaComponents(
      BuildColumnNames(source_table, a, TokenizeIdentifier(a.name()),
                       *thesaurus_),
      BuildColumnNames(target_table, b, TokenizeIdentifier(b.name()),
                       *thesaurus_),
      options_.use_soundex, &scratch);
  return std::move(scratch.scores);
}

double ComaMatcher::Aggregate(const std::vector<ComaComponentScore>& scores,
                              ComaAggregation aggregation) {
  if (scores.empty()) return 0.0;
  switch (aggregation) {
    case ComaAggregation::kMax: {
      double best = 0.0;
      for (const auto& s : scores) best = std::max(best, s.score);
      return best;
    }
    case ComaAggregation::kMin: {
      double worst = std::numeric_limits<double>::max();
      for (const auto& s : scores) worst = std::min(worst, s.score);
      return worst;
    }
    case ComaAggregation::kAverage: {
      double total = 0.0;
      for (const auto& s : scores) total += s.score;
      return total / static_cast<double>(scores.size());
    }
    case ComaAggregation::kWeighted: {
      double total = 0.0;
      double total_w = 0.0;
      for (const auto& s : scores) {
        total += s.score * s.weight;
        total_w += s.weight;
      }
      return total_w > 0.0 ? total / total_w : 0.0;
    }
  }
  return 0.0;
}

namespace {

/// Applies the direction + selection strategies to the aggregated
/// row-major ns x nt score matrix, returning the surviving (i, j) pairs.
std::vector<std::pair<size_t, size_t>> SelectPairs(
    const std::vector<double>& matrix, size_t ns, size_t nt,
    const ComaOptions& opt) {
  auto score = [&](size_t i, size_t j) { return matrix[i * nt + j]; };
  std::vector<std::pair<size_t, size_t>> out;

  auto passes_threshold = [&](size_t i, size_t j) {
    return score(i, j) >= opt.threshold;
  };

  if (opt.selection == ComaSelection::kAll) {
    for (size_t i = 0; i < ns; ++i) {
      for (size_t j = 0; j < nt; ++j) {
        if (passes_threshold(i, j)) out.emplace_back(i, j);
      }
    }
    return out;
  }

  if (opt.selection == ComaSelection::kOneToOne) {
    // Greedy best-counterpart selection over descending scores.
    std::vector<std::tuple<double, size_t, size_t>> ranked;
    for (size_t i = 0; i < ns; ++i) {
      for (size_t j = 0; j < nt; ++j) {
        if (passes_threshold(i, j)) ranked.emplace_back(score(i, j), i, j);
      }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (std::get<0>(a) != std::get<0>(b)) {
                  return std::get<0>(a) > std::get<0>(b);
                }
                if (std::get<1>(a) != std::get<1>(b)) {
                  return std::get<1>(a) < std::get<1>(b);
                }
                return std::get<2>(a) < std::get<2>(b);
              });
    std::vector<bool> used_src(ns, false), used_tgt(nt, false);
    for (const auto& [s, i, j] : ranked) {
      if (used_src[i] || used_tgt[j]) continue;
      used_src[i] = true;
      used_tgt[j] = true;
      out.emplace_back(i, j);
    }
    return out;
  }

  // kMaxN / kMaxDelta: build per-direction candidate sets, then apply
  // the direction strategy.
  auto forward_keep = [&](size_t i, size_t j) {
    // Rank of (i, j) within row i.
    if (opt.selection == ComaSelection::kMaxN) {
      size_t better = 0;
      for (size_t k = 0; k < nt; ++k) {
        if (score(i, k) > score(i, j)) ++better;
      }
      return better < opt.max_n;
    }
    double best = 0.0;
    for (size_t k = 0; k < nt; ++k) best = std::max(best, score(i, k));
    return score(i, j) >= best - opt.delta;
  };
  auto backward_keep = [&](size_t i, size_t j) {
    if (opt.selection == ComaSelection::kMaxN) {
      size_t better = 0;
      for (size_t k = 0; k < ns; ++k) {
        if (score(k, j) > score(i, j)) ++better;
      }
      return better < opt.max_n;
    }
    double best = 0.0;
    for (size_t k = 0; k < ns; ++k) best = std::max(best, score(k, j));
    return score(i, j) >= best - opt.delta;
  };

  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = 0; j < nt; ++j) {
      if (!passes_threshold(i, j)) continue;
      bool keep = false;
      switch (opt.direction) {
        case ComaDirection::kForward:
          keep = forward_keep(i, j);
          break;
        case ComaDirection::kBackward:
          keep = backward_keep(i, j);
          break;
        case ComaDirection::kBoth:
          keep = forward_keep(i, j) && backward_keep(i, j);
          break;
      }
      if (keep) out.emplace_back(i, j);
    }
  }
  return out;
}

/// Per-table artifact: every column's name-side matcher inputs (see
/// ColumnNames); the instance strategy adds capped value sets, text
/// profiles, numeric stats, and numeric fractions. Abbreviation
/// expansion makes the name inputs thesaurus-dependent, so the prepare
/// key carries the thesaurus fingerprint.
struct ComaPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<ColumnNames> names;
  std::vector<std::unordered_set<std::string>> sets;
  std::vector<TextProfile> text;
  std::vector<NumericStats> nums;
  std::vector<double> numfrac;
};

}  // namespace

std::string ComaMatcher::PrepareKey() const {
  const bool instances = options_.strategy == ComaStrategy::kInstances;
  return "cap=" + std::to_string(options_.max_distinct_values) +
         ";instances=" + (instances ? "1" : "0") +
         ";thes=" + std::to_string(thesaurus_->Fingerprint());
}

Result<PreparedTablePtr> ComaMatcher::Prepare(
    const Table& table, const MatchContext& context) const {
  VALENTINE_RETURN_NOT_OK(context.Check("coma prepare"));
  auto prepared = std::make_shared<ComaPrepared>(&table, Name(), PrepareKey());
  const size_t n = table.num_columns();

  // Name-side inputs once per column.
  prepared->names.reserve(n);
  for (const Column& c : table.columns()) {
    prepared->names.push_back(BuildColumnNames(
        table.name(), c, TokenizeIdentifier(c.name()), *thesaurus_));
  }

  if (options_.strategy == ComaStrategy::kInstances) {
    prepared->sets.reserve(n);
    for (const Column& c : table.columns()) {
      // Cap in first-seen row order, never by iterating the unordered
      // set: hash order would make the kept subset — and the Jaccard
      // scores built on it — nondeterministic across runs/platforms.
      std::vector<std::string> distinct = c.DistinctStrings();
      if (options_.max_distinct_values > 0 &&
          distinct.size() > options_.max_distinct_values) {
        distinct.resize(options_.max_distinct_values);
      }
      prepared->sets.emplace_back(distinct.begin(), distinct.end());
      prepared->text.push_back(ComputeTextProfile(c));
      prepared->nums.push_back(ComputeNumericStats(c.NumericValues()));
      prepared->numfrac.push_back(c.NumericFraction());
    }
  }
  return PreparedTablePtr(std::move(prepared));
}

Result<MatchResult> ComaMatcher::Score(const PreparedTable& source,
                                       const PreparedTable& target,
                                       const PreparedPair* /*pair*/,
                                       const MatchContext& context) const {
  const auto* src = dynamic_cast<const ComaPrepared*>(&source);
  const auto* tgt = dynamic_cast<const ComaPrepared*>(&target);
  if (src == nullptr || tgt == nullptr ||
      src->prepare_key() != PrepareKey() ||
      tgt->prepare_key() != PrepareKey()) {
    return MatchWithContext(source.table(), target.table(), context);
  }

  const Table& source_table = src->table();
  const Table& target_table = tgt->table();
  const size_t ns = source_table.num_columns();
  const size_t nt = target_table.num_columns();
  const bool instances = options_.strategy == ComaStrategy::kInstances;

  // Optional TF-IDF token matcher (whole-matrix computation over both
  // tables at once — inherently pair-level, so it stays in Score).
  std::vector<std::vector<double>> tfidf_sim;
  if (instances && options_.use_tfidf_tokens) {
    tfidf_sim = TfIdfColumnSimilarity(source_table, target_table,
                                      options_.max_distinct_values);
  }

  // Aggregated row-major similarity matrix over all first-line
  // matchers, filled through one reused component buffer.
  std::vector<double> combined(ns * nt, 0.0);
  ComaScratch scratch;
  auto& scores = scratch.scores;
  for (size_t i = 0; i < ns; ++i) {
    VALENTINE_RETURN_NOT_OK(context.Check("coma matcher library sweep"));
    for (size_t j = 0; j < nt; ++j) {
      scores.clear();
      SchemaComponents(src->names[i], tgt->names[j], options_.use_soundex,
                       &scratch);
      if (instances) {
        scores.push_back({"value_overlap",
                          JaccardSimilarity(src->sets[i], tgt->sets[j]), 3.0});
        // Profile matcher: numeric columns compare moments, textual
        // columns compare character profiles.
        double prof_sim;
        if (src->numfrac[i] > 0.9 && tgt->numfrac[j] > 0.9) {
          prof_sim = NumericStatsSimilarity(src->nums[i], tgt->nums[j]);
        } else {
          prof_sim = TextProfileSimilarity(src->text[i], tgt->text[j]);
        }
        scores.push_back({"instance_profile", prof_sim, 1.5});
        if (options_.use_tfidf_tokens) {
          scores.push_back({"tfidf_tokens", tfidf_sim[i][j], 2.0});
        }
      }
      combined[i * nt + j] = Aggregate(scores, options_.aggregation);
    }
  }

  const std::vector<std::pair<size_t, size_t>> selected =
      SelectPairs(combined, ns, nt, options_);
  std::vector<ScoredCell> cells;
  cells.reserve(selected.size());
  for (const auto& [i, j] : selected) {
    cells.emplace_back(i, j, combined[i * nt + j]);
  }
  return MatchResult::Ranked(source_table, target_table, std::move(cells));
}

}  // namespace valentine
