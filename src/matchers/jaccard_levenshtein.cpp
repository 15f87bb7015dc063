#include "matchers/jaccard_levenshtein.h"

#include <memory>
#include <utility>

#include "text/string_similarity.h"

namespace valentine {

namespace {

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
    const Table& table, const MatchContext& context) const {
  VALENTINE_RETURN_NOT_OK(context.Check("jaccard-levenshtein prepare"));
  auto prepared = std::make_shared<JlPrepared>(&table, Name(), PrepareKey());
  const size_t cap = options_.max_distinct_values;
  prepared->columns.reserve(table.num_columns());
  for (const Column& c : table.columns()) {
    std::vector<std::string> vals = c.DistinctStrings();
    if (cap > 0 && vals.size() > cap) vals.resize(cap);
    prepared->columns.push_back(FuzzyJaccardColumn::Build(std::move(vals)));
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
