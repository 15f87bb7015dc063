#include "matchers/cupid.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "text/stemmer.h"
#include "text/string_similarity.h"
#include "text/tokenizer.h"

namespace valentine {

namespace {

/// One normalized identifier token: the abbreviation-expanded surface
/// form (for thesaurus lookup — the thesaurus stores surface forms) and
/// its stem (for string similarity and plural folding).
struct Tok {
  std::string raw;
  std::string stem;
};

std::vector<Tok> NormalizeName(const std::string& name,
                               const Thesaurus& thesaurus) {
  std::vector<Tok> tokens;
  for (const std::string& t : TokenizeIdentifier(name)) {
    std::string raw = thesaurus.Expand(t);
    tokens.push_back({raw, StemToken(raw)});
  }
  return tokens;
}

/// The linguistic-similarity core over two normalized token lists:
/// thesaurus relatedness (raw or stemmed forms) dominates, Jaro-Winkler
/// on stems as fallback for unknown vocabulary. Callers handle the
/// empty-list case.
double LsimFromTokens(const std::vector<Tok>& ta, const std::vector<Tok>& tb,
                      const Thesaurus& thesaurus) {
  auto token_sim = [&](const Tok& x, const Tok& y) {
    double rel = std::max(thesaurus.Relatedness(x.raw, y.raw),
                          thesaurus.Relatedness(x.stem, y.stem));
    double jw = JaroWinklerSimilarity(x.stem, y.stem);
    return std::max(rel, jw);
  };
  auto one_way = [&](const std::vector<Tok>& xs, const std::vector<Tok>& ys) {
    double total = 0.0;
    for (const auto& x : xs) {
      double best = 0.0;
      for (const auto& y : ys) best = std::max(best, token_sim(x, y));
      total += best;
    }
    return total / static_cast<double>(xs.size());
  };
  return 0.5 * (one_way(ta, tb) + one_way(tb, ta));
}

/// Per-table artifact: normalized name tokens for every column and for
/// the table name itself.
struct CupidPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<std::vector<Tok>> column_tokens;
  std::vector<Tok> table_tokens;
};

}  // namespace

double CupidMatcher::TypeCompatibility(DataType a, DataType b) {
  if (a == b) return 1.0;
  if (TypesCompatible(a, b)) return 0.8;
  return 0.4;  // Cupid keeps a floor: incompatible types still may match.
}

double CupidMatcher::LinguisticSimilarity(const std::string& a,
                                          const std::string& b) const {
  std::string key = a + "\x1f" + b;
  {
    MutexLock lock(&cache_mutex_);
    if (auto it = lsim_cache_.find(key); it != lsim_cache_.end()) {
      return it->second;
    }
  }
  std::vector<Tok> ta = NormalizeName(a, *thesaurus_);
  std::vector<Tok> tb = NormalizeName(b, *thesaurus_);
  if (ta.empty() || tb.empty()) return 0.0;
  double sim = LsimFromTokens(ta, tb, *thesaurus_);
  {
    MutexLock lock(&cache_mutex_);
    lsim_cache_.emplace(std::move(key), sim);
  }
  return sim;
}

std::string CupidMatcher::PrepareKey() const {
  // Every TreeMatch constant is score-stage; the token artifact depends
  // only on the thesaurus content (abbreviation expansion).
  return "thes=" + std::to_string(thesaurus_->Fingerprint());
}

Result<PreparedTablePtr> CupidMatcher::Prepare(
    const Table& table, const TableProfile* profile,
    const MatchContext& context) const {
  (void)profile;  // name tokens are uncapped, nothing to serve
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

Result<MatchResult> CupidMatcher::Score(const PreparedTable& source,
                                        const PreparedTable& target,
                                        const MatchContext& context) const {
  const auto* src = dynamic_cast<const CupidPrepared*>(&source);
  const auto* tgt = dynamic_cast<const CupidPrepared*>(&target);
  if (src == nullptr || tgt == nullptr ||
      src->prepare_key() != PrepareKey() ||
      tgt->prepare_key() != PrepareKey()) {
    return MatchWithContext(source.table(), target.table(), context);
  }

  const Table& source_table = src->table();
  const Table& target_table = tgt->table();
  const size_t ns = src->column_tokens.size();
  const size_t nt = tgt->column_tokens.size();

  // Prepared-token variant of LinguisticSimilarity: same memo cache,
  // same key, same result — normalization is skipped, not changed.
  auto cached_lsim = [&](const std::string& name_a,
                         const std::vector<Tok>& ta,
                         const std::string& name_b,
                         const std::vector<Tok>& tb) {
    std::string key = name_a + "\x1f" + name_b;
    {
      MutexLock lock(&cache_mutex_);
      if (auto it = lsim_cache_.find(key); it != lsim_cache_.end()) {
        return it->second;
      }
    }
    if (ta.empty() || tb.empty()) return 0.0;
    double sim = LsimFromTokens(ta, tb, *thesaurus_);
    {
      MutexLock lock(&cache_mutex_);
      lsim_cache_.emplace(std::move(key), sim);
    }
    return sim;
  };

  // --- Linguistic matching over leaves (columns). ---
  // One check per matrix row keeps cancellation latency proportional to
  // a single row of thesaurus lookups.
  std::vector<std::vector<double>> lsim(ns, std::vector<double>(nt, 0.0));
  for (size_t i = 0; i < ns; ++i) {
    VALENTINE_RETURN_NOT_OK(context.Check("cupid linguistic matching"));
    for (size_t j = 0; j < nt; ++j) {
      lsim[i][j] = cached_lsim(source_table.column(i).name(),
                               src->column_tokens[i],
                               target_table.column(j).name(),
                               tgt->column_tokens[j]);
    }
  }

  // --- Structural matching (TreeMatch on a 2-level tree). ---
  // Initial leaf structural similarity: data-type compatibility.
  std::vector<std::vector<double>> ssim(ns, std::vector<double>(nt, 0.0));
  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = 0; j < nt; ++j) {
      ssim[i][j] = TypeCompatibility(source_table.column(i).type(),
                                     target_table.column(j).type());
    }
  }
  auto wsim_at = [&](size_t i, size_t j, double w_struct) {
    return w_struct * ssim[i][j] + (1.0 - w_struct) * lsim[i][j];
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
  double table_lsim = cached_lsim(source_table.name(), src->table_tokens,
                                  target_table.name(), tgt->table_tokens);
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
