#include "scaling/approximate_matcher.h"

#include <algorithm>

namespace valentine {

namespace {

/// True when `a` and `b` agree on every slot of some `rows`-slot band.
bool ShareBand(const LazoSketch& a, const LazoSketch& b, size_t rows) {
  const std::vector<uint64_t>& x = a.signature.mins();
  const std::vector<uint64_t>& y = b.signature.mins();
  for (size_t start = 0; start < x.size(); start += rows) {
    if (std::equal(x.begin() + start, x.begin() + start + rows,
                   y.begin() + start)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<MatchResult> ApproximateOverlapMatcher::MatchWithContext(
    const Table& source, const Table& target,
    const MatchContext& context) const {
  const size_t rows = std::max<size_t>(options_.lsh.rows_per_band, 1);
  const size_t width = std::max<size_t>(options_.lsh.bands, 1) * rows;
  auto sketch = [width](const Table& table) {
    std::vector<LazoSketch> sketches;
    sketches.reserve(table.num_columns());
    for (const Column& c : table.columns()) {
      sketches.push_back(LazoSketch::Build(c.DistinctStringSet(), width));
    }
    return sketches;
  };
  const std::vector<LazoSketch> src = sketch(source);
  const std::vector<LazoSketch> tgt = sketch(target);
  // Pruning matches a repeated target name at its first column only.
  std::vector<bool> first_of_name(tgt.size());
  for (size_t j = 0; j < tgt.size(); ++j) {
    first_of_name[j] = target.ColumnIndex(target.column(j).name()) == j;
  }

  std::vector<ScoredCell> cells;
  for (size_t i = 0; i < src.size(); ++i) {
    VALENTINE_RETURN_NOT_OK(context.Check("approximate overlap"));
    for (size_t j = 0; j < tgt.size(); ++j) {
      // An empty set's signature is all sentinels, which every other
      // empty set agrees with: it scores 0 and is never a candidate.
      const bool empty = src[i].cardinality == 0 || tgt[j].cardinality == 0;
      if (!options_.estimate_all_pairs &&
          (empty || !first_of_name[j] || !ShareBand(src[i], tgt[j], rows))) {
        continue;
      }
      const double jaccard = empty ? 0.0 : EstimateLazo(src[i], tgt[j]).jaccard;
      if (jaccard >= options_.min_jaccard) cells.emplace_back(i, j, jaccard);
    }
  }
  return MatchResult::Ranked(source, target, std::move(cells));
}

}  // namespace valentine
