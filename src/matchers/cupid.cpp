#include "matchers/cupid.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/opcount.h"
#include "text/stemmer.h"
#include "text/string_similarity.h"
#include "text/tokenizer.h"

namespace valentine {

namespace {

/// One normalized identifier token with its thesaurus lookups resolved:
/// the abbreviation-expanded surface form (the thesaurus stores surface
/// forms) and its stem (for string similarity and plural folding).
struct Tok {
  Thesaurus::Term raw;
  Thesaurus::Term stem;
};

std::vector<Tok> NormalizeName(const std::string& name,
                               const Thesaurus& thesaurus) {
  std::vector<Tok> tokens;
  for (const std::string& t : TokenizeIdentifier(name)) {
    const std::string raw = thesaurus.Expand(t);
    tokens.push_back({thesaurus.Resolve(raw), thesaurus.Resolve(StemToken(raw))});
  }
  return tokens;
}

/// The linguistic-similarity core over two normalized token lists:
/// thesaurus relatedness (raw or stemmed forms) dominates, Jaro-Winkler
/// on stems as fallback for unknown vocabulary; the symmetric
/// best-match average, 0 when either list is empty. Token similarity is
/// symmetric, so one sweep over the token pairs serves both directions:
/// the row maxima give a→b and the column maxima (`best_for_b`,
/// scratch) b→a.
double LsimFromTokens(const std::vector<Tok>& ta, const std::vector<Tok>& tb,
                      std::vector<double>* best_for_b) {
  if (ta.empty() || tb.empty()) return 0.0;
  opcount::Add(opcount::Op::kNameTokenPairs, ta.size() * tb.size());
  auto token_sim = [](const Tok& x, const Tok& y) {
    double rel = std::max(Thesaurus::Relatedness(x.raw, y.raw),
                          Thesaurus::Relatedness(x.stem, y.stem));
    double jw = JaroWinklerSimilarity(x.stem.word, y.stem.word);
    return std::max(rel, jw);
  };
  best_for_b->assign(tb.size(), 0.0);
  double a_total = 0.0;
  for (const Tok& x : ta) {
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

/// Per-table artifact: normalized name tokens for every column and for
/// the table name itself.
struct CupidPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<std::vector<Tok>> column_tokens;
  std::vector<Tok> table_tokens;
};

/// Pair artifact: linguistic similarity of every (source column, target
/// column) name pair, row-major, and of the two table names.
struct CupidPair : PreparedPair {
  using PreparedPair::PreparedPair;
  std::vector<double> lsim;
  double table_lsim = 0.0;
};

Result<std::shared_ptr<const CupidPair>> BuildCupidPair(
    const CupidPrepared& src, const CupidPrepared& tgt,
    const MatchContext& context) {
  const size_t ns = src.column_tokens.size();
  const size_t nt = tgt.column_tokens.size();
  auto pair = std::make_shared<CupidPair>(src, tgt);
  pair->lsim.resize(ns * nt);
  std::vector<double> best_for_b;
  // One check per matrix row keeps cancellation latency proportional to
  // a single row of token comparisons.
  for (size_t i = 0; i < ns; ++i) {
    VALENTINE_RETURN_NOT_OK(context.Check("cupid linguistic matching"));
    for (size_t j = 0; j < nt; ++j) {
      pair->lsim[i * nt + j] = LsimFromTokens(
          src.column_tokens[i], tgt.column_tokens[j], &best_for_b);
    }
  }
  pair->table_lsim =
      LsimFromTokens(src.table_tokens, tgt.table_tokens, &best_for_b);
  return std::shared_ptr<const CupidPair>(std::move(pair));
}

}  // namespace

double CupidMatcher::TypeCompatibility(DataType a, DataType b) {
  if (a == b) return 1.0;
  if (TypesCompatible(a, b)) return 0.8;
  return 0.4;  // Cupid keeps a floor: incompatible types still may match.
}

double CupidMatcher::LinguisticSimilarity(const std::string& a,
                                          const std::string& b) const {
  std::vector<double> best_for_b;
  return LsimFromTokens(NormalizeName(a, *thesaurus_),
                        NormalizeName(b, *thesaurus_), &best_for_b);
}

std::string CupidMatcher::PrepareKey() const {
  // Every TreeMatch constant is score-stage; the token artifact depends
  // only on the thesaurus content (abbreviation expansion, lookups).
  return "thes=" + std::to_string(thesaurus_->Fingerprint());
}

Result<PreparedTablePtr> CupidMatcher::Prepare(
    const Table& table, const MatchContext& context) const {
  VALENTINE_RETURN_NOT_OK(context.Check("cupid prepare"));
  auto prepared =
      std::make_shared<CupidPrepared>(&table, Name(), PrepareKey());
  prepared->table_tokens = NormalizeName(table.name(), *thesaurus_);
  prepared->column_tokens.reserve(table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    prepared->column_tokens.push_back(
        NormalizeName(table.column(i).name(), *thesaurus_));
  }
  return PreparedTablePtr(std::move(prepared));
}

Result<PreparedPairPtr> CupidMatcher::PreparePair(
    const PreparedTable& source, const PreparedTable& target,
    const MatchContext& context) const {
  const auto* src = dynamic_cast<const CupidPrepared*>(&source);
  const auto* tgt = dynamic_cast<const CupidPrepared*>(&target);
  const std::string key = PrepareKey();
  if (src == nullptr || tgt == nullptr || src->prepare_key() != key ||
      tgt->prepare_key() != key) {
    return PreparedPairPtr();
  }
  Result<std::shared_ptr<const CupidPair>> built =
      BuildCupidPair(*src, *tgt, context);
  VALENTINE_RETURN_NOT_OK(built.status());
  return PreparedPairPtr(std::move(built).ValueOrDie());
}

Result<MatchResult> CupidMatcher::Score(const PreparedTable& source,
                                        const PreparedTable& target,
                                        const PreparedPair* pair,
                                        const MatchContext& context) const {
  const auto* src = dynamic_cast<const CupidPrepared*>(&source);
  const auto* tgt = dynamic_cast<const CupidPrepared*>(&target);
  const std::string key = PrepareKey();
  if (src == nullptr || tgt == nullptr || src->prepare_key() != key ||
      tgt->prepare_key() != key) {
    return MatchWithContext(source.table(), target.table(), context);
  }
  // The shared pair artifact when it is this pair's, else built inline.
  const auto* linguistic = dynamic_cast<const CupidPair*>(pair);
  std::shared_ptr<const CupidPair> inline_pair;
  if (linguistic == nullptr || !linguistic->Serves(source, target, key)) {
    Result<std::shared_ptr<const CupidPair>> built =
        BuildCupidPair(*src, *tgt, context);
    VALENTINE_RETURN_NOT_OK(built.status());
    inline_pair = std::move(built).ValueOrDie();
    linguistic = inline_pair.get();
  }

  const Table& source_table = src->table();
  const Table& target_table = tgt->table();
  const size_t ns = src->column_tokens.size();
  const size_t nt = tgt->column_tokens.size();

  // --- Linguistic matching over leaves (columns): the pair artifact. ---
  const std::vector<double>& lsim = linguistic->lsim;

  // --- Structural matching (TreeMatch on a 2-level tree). ---
  VALENTINE_RETURN_NOT_OK(context.Check("cupid structural matching"));
  // Initial leaf structural similarity: data-type compatibility.
  std::vector<std::vector<double>> ssim(ns, std::vector<double>(nt, 0.0));
  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = 0; j < nt; ++j) {
      ssim[i][j] = TypeCompatibility(source_table.column(i).type(),
                                     target_table.column(j).type());
    }
  }
  auto wsim_at = [&](size_t i, size_t j, double w_struct) {
    return w_struct * ssim[i][j] + (1.0 - w_struct) * lsim[i * nt + j];
  };

  // Table-level structural similarity: fraction of leaves with a strong
  // link (wsim >= th_accept) among all leaves of both subtrees.
  auto table_ssim = [&] {
    size_t strong_src = 0;
    for (size_t i = 0; i < ns; ++i) {
      for (size_t j = 0; j < nt; ++j) {
        if (wsim_at(i, j, options_.leaf_w_struct) >= options_.th_accept) {
          ++strong_src;
          break;
        }
      }
    }
    size_t strong_tgt = 0;
    for (size_t j = 0; j < nt; ++j) {
      for (size_t i = 0; i < ns; ++i) {
        if (wsim_at(i, j, options_.leaf_w_struct) >= options_.th_accept) {
          ++strong_tgt;
          break;
        }
      }
    }
    return static_cast<double>(strong_src + strong_tgt) /
           static_cast<double>(ns + nt);
  };

  // Table-level linguistic similarity between the two table names.
  const double table_lsim = linguistic->table_lsim;
  double parent_ssim = table_ssim();
  double parent_wsim =
      options_.w_struct * parent_ssim + (1.0 - options_.w_struct) * table_lsim;

  // Mutual reinforcement: if the parents match strongly, boost leaf
  // structural similarities; if weakly, penalize (original TreeMatch).
  double factor = 1.0;
  if (parent_wsim > options_.th_high) {
    factor = options_.c_inc;
  } else if (parent_wsim < options_.th_low) {
    factor = options_.c_dec;
  }
  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = 0; j < nt; ++j) {
      ssim[i][j] = std::min(1.0, ssim[i][j] * factor);
    }
  }

  std::vector<ScoredCell> cells;
  cells.reserve(ns * nt);
  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = 0; j < nt; ++j) {
      cells.emplace_back(i, j, wsim_at(i, j, options_.leaf_w_struct));
    }
  }
  return MatchResult::Ranked(source_table, target_table, std::move(cells));
}

}  // namespace valentine
