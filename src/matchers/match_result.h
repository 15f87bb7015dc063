#ifndef VALENTINE_MATCHERS_MATCH_RESULT_H_
#define VALENTINE_MATCHERS_MATCH_RESULT_H_

/// \file match_result.h
/// The output contract of every matcher: a *ranked* list of column pairs
/// with confidence scores. Valentine's central argument (paper §II-C) is
/// that dataset discovery needs rankings, not 1-1 match sets — all
/// effectiveness metrics here consume this ranking.
///
/// Rank order is produced in one place, match_result.cpp: score
/// descending, then source ref, then target ref. A matcher that scores
/// one table pair hands its cells to MatchResult::Ranked; results
/// merged from several sources are put in the same order by Sort().

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/table.h"

namespace valentine {

/// \brief One candidate correspondence between a source and target column.
struct Match {
  ColumnRef source;
  ColumnRef target;
  double score = 0.0;

  bool SamePair(const Match& other) const {
    return source == other.source && target == other.target;
  }
};

/// \brief One scored cell of a single table pair's match matrix: a
/// source and a target column, as indices into their tables, and the
/// score of the pair.
struct ScoredCell {
  ScoredCell(size_t source_column, size_t target_column, double cell_score)
      : score(cell_score),
        source(static_cast<uint32_t>(source_column)),
        target(static_cast<uint32_t>(target_column)) {}

  double score;
  uint32_t source;
  uint32_t target;
};

/// \brief A ranked list of matches (highest score first after Sort()).
class MatchResult {
 public:
  MatchResult() = default;

  /// The ranked result of one table pair: a match per cell, in the order
  /// Sort() would give the same matches. Each table's column names are
  /// ranked once and the cells are sorted on (score, name rank) keys, so
  /// the sort compares no strings and moves no Match records; the
  /// matches are then built once, in rank order. Cells may cover any
  /// subset of the pairs, and a table may repeat a column name.
  static MatchResult Ranked(const Table& source, const Table& target,
                            std::vector<ScoredCell> cells);

  void Add(ColumnRef source, ColumnRef target, double score) {
    matches_.push_back({std::move(source), std::move(target), score});
  }
  void Add(Match m) { matches_.push_back(std::move(m)); }

  size_t size() const { return matches_.size(); }
  bool empty() const { return matches_.empty(); }
  const Match& operator[](size_t i) const { return matches_[i]; }
  const std::vector<Match>& matches() const { return matches_; }

  /// Sorts by descending score; ties broken lexicographically on the
  /// column refs so rankings are fully deterministic. For results merged
  /// from several sources: the distinct refs are found by hashing and
  /// ranked, the match indices sorted on the same keys as Ranked()'s
  /// cells, and each record moved to its rank once.
  void Sort();

  /// The first k matches after sorting (fewer if the list is shorter).
  std::vector<Match> TopK(size_t k) const;

  /// Drops matches scoring strictly below `threshold`.
  void FilterBelow(double threshold);

  /// Multi-line debug rendering "source -> target : score".
  std::string ToString(size_t limit = 20) const;

 private:
  std::vector<Match> matches_;
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_MATCH_RESULT_H_
