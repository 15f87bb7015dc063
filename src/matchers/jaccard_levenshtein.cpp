#include "matchers/jaccard_levenshtein.h"

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
/// fuzzy-Jaccard kernel inputs (lengths, sorted hashes, folded bags).
struct JlPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<FuzzyJaccardColumn> columns;
};

}  // namespace

std::string JaccardLevenshteinMatcher::PrepareKey() const {
  // threshold / kernel are score-stage; the artifact depends only on
  // the value cap.
  return "cap=" + std::to_string(options_.max_distinct_values);
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
  return PreparedTablePtr(std::move(prepared));
}

Result<MatchResult> JaccardLevenshteinMatcher::Score(
    const PreparedTable& source, const PreparedTable& target,
    const PreparedPair* /*pair*/, const MatchContext& context) const {
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
  std::vector<ScoredCell> cells;
  cells.reserve(src->columns.size() * tgt->columns.size());
  for (size_t i = 0; i < src->columns.size(); ++i) {
    // Each row of the matrix is a batch of fuzzy set intersections —
    // the quadratic hot loop — so the budget check lives here.
    VALENTINE_RETURN_NOT_OK(context.Check("fuzzy-jaccard column sweep"));
    for (size_t j = 0; j < tgt->columns.size(); ++j) {
      cells.emplace_back(i, j,
                         FuzzyJaccard(src->columns[i], tgt->columns[j],
                                      options_.threshold, options_.kernel));
    }
  }
  return MatchResult::Ranked(source_table, target_table, std::move(cells));
}

}  // namespace valentine
