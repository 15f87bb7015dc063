#include "matchers/jaccard_levenshtein.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "stats/column_profile.h"
#include "text/string_similarity.h"

namespace valentine {

namespace {

/// Capped distinct-value lists for every column, served from the table
/// profile when its stored list covers the requested prefix (the profile
/// list and the inline extraction start from the same first-seen order,
/// so a served prefix is bit-identical to extracting) and extracted
/// inline otherwise. `views[i]` points either into the profile or into
/// `owned[i]`.
struct ColumnValues {
  std::vector<const std::vector<std::string>*> views;
  std::vector<std::vector<std::string>> owned;
};

ColumnValues ExtractValues(const Table& t, const TableProfile* profile,
                           size_t cap) {
  ColumnValues out;
  const size_t n = t.num_columns();
  out.views.resize(n);
  out.owned.resize(n);
  const bool served = profile != nullptr && profile->Matches(t);
  for (size_t i = 0; i < n; ++i) {
    if (served) {
      const ColumnProfile& p = profile->column(i);
      if (p.CanServeDistinctPrefix(cap)) {
        size_t len = p.DistinctPrefixLength(cap);
        if (len == p.distinct().size()) {
          out.views[i] = &p.distinct();
        } else {
          out.owned[i].assign(p.distinct().begin(),
                              p.distinct().begin() + len);
          out.views[i] = &out.owned[i];
        }
        continue;
      }
    }
    std::vector<std::string> vals = t.column(i).DistinctStrings();
    if (cap > 0 && vals.size() > cap) vals.resize(cap);
    out.owned[i] = std::move(vals);
    out.views[i] = &out.owned[i];
  }
  return out;
}

/// Per-table artifact: per column, the capped distinct list with its
/// fuzzy-Jaccard kernel inputs (lengths, sorted hashes, folded bags),
/// plus MinHash sketches when the opt-in prune needs them.
struct JlPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<FuzzyJaccardColumn> columns;
  std::vector<MinHashSignature> sigs;  ///< empty unless pruning
};

}  // namespace

std::string JaccardLevenshteinMatcher::PrepareKey() const {
  // threshold / kernel / prune thresholds are score-stage; the artifact
  // depends only on the value cap and on whether sketches are needed.
  return "cap=" + std::to_string(options_.max_distinct_values) +
         ";sketch=" + (options_.prune_below > 0.0 ? "1" : "0");
}

Result<PreparedTablePtr> JaccardLevenshteinMatcher::Prepare(
    const Table& table, const TableProfile* profile,
    const MatchContext& context) const {
  VALENTINE_RETURN_NOT_OK(context.Check("jaccard-levenshtein prepare"));
  auto prepared = std::make_shared<JlPrepared>(&table, Name(), PrepareKey());
  const size_t n = table.num_columns();
  ColumnValues vals =
      ExtractValues(table, profile, options_.max_distinct_values);
  prepared->columns.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    prepared->columns.push_back(FuzzyJaccardColumn::Build(*vals.views[i]));
  }

  // MinHash sketches for the opt-in prune: reuse the profile sketch when
  // it was built over exactly our value set, else build from the lists
  // in hand. Either way the sketch is a pure function of the set, so
  // pruning decisions do not depend on whether a cache was attached.
  if (options_.prune_below > 0.0) {
    const size_t sketch_hashes = ProfileSpec().minhash_hashes;
    const bool served = profile != nullptr && profile->Matches(table);
    prepared->sigs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (served) {
        const ColumnProfile& p = profile->column(i);
        if (p.CapsEquivalent(options_.max_distinct_values,
                             profile->spec().set_cap) &&
            p.minhash().size() == sketch_hashes) {
          prepared->sigs.push_back(p.minhash());
          continue;
        }
      }
      const std::vector<std::string>& values = prepared->columns[i].values;
      std::unordered_set<std::string> set(values.begin(), values.end());
      prepared->sigs.push_back(MinHashSignature::Build(set, sketch_hashes));
    }
  }
  return PreparedTablePtr(std::move(prepared));
}

Result<MatchResult> JaccardLevenshteinMatcher::Score(
    const PreparedTable& source, const PreparedTable& target,
    const MatchContext& context) const {
  const auto* src = dynamic_cast<const JlPrepared*>(&source);
  const auto* tgt = dynamic_cast<const JlPrepared*>(&target);
  if (src == nullptr || tgt == nullptr ||
      src->prepare_key() != PrepareKey() ||
      tgt->prepare_key() != PrepareKey()) {
    // Foreign or stale artifact: re-prepare inline (the compose default)
    // so cached and uncached paths stay byte-identical.
    return MatchWithContext(source.table(), target.table(), context);
  }

  const Table& source_table = src->table();
  const Table& target_table = tgt->table();
  const bool pruning = options_.prune_below > 0.0;
  std::vector<ScoredCell> cells;
  cells.reserve(src->columns.size() * tgt->columns.size());
  for (size_t i = 0; i < src->columns.size(); ++i) {
    // Each row of the matrix is a batch of fuzzy set intersections —
    // the quadratic hot loop — so the budget check lives here.
    VALENTINE_RETURN_NOT_OK(context.Check("fuzzy-jaccard column sweep"));
    for (size_t j = 0; j < tgt->columns.size(); ++j) {
      const FuzzyJaccardColumn& a = src->columns[i];
      const FuzzyJaccardColumn& b = tgt->columns[j];
      const size_t na = a.values.size();
      const size_t nb = b.values.size();
      if (pruning && na > 0 && nb > 0) {
        // Exact bound: matched <= min(|A|,|B|), union >= max(|A|,|B|).
        double ratio = static_cast<double>(std::min(na, nb)) /
                       static_cast<double>(std::max(na, nb));
        if (ratio < options_.prune_below) continue;
        double est = src->sigs[i].EstimateJaccard(tgt->sigs[j]);
        if (est + options_.prune_slack < options_.prune_below) continue;
      }
      cells.emplace_back(
          i, j, FuzzyJaccard(a, b, options_.threshold, options_.kernel));
    }
  }
  return MatchResult::Ranked(source_table, target_table, std::move(cells));
}

}  // namespace valentine
