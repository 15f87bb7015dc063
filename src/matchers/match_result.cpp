#include "matchers/match_result.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/opcount.h"

namespace valentine {

namespace {

/// Dense ranks of `n` keys in `less` order: equal keys share a rank.
/// `rank[i]` is key i's rank and `first[r]` a key holding rank r.
template <typename Less>
void DenseRanks(size_t n, Less less, std::vector<uint32_t>* rank,
                std::vector<uint32_t>* first) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), less);
  rank->resize(n);
  first->clear();
  for (size_t k = 0; k < n; ++k) {
    if (k == 0 || less(order[k - 1], order[k])) first->push_back(order[k]);
    (*rank)[order[k]] = static_cast<uint32_t>(first->size() - 1);
  }
  opcount::Add(opcount::Op::kRankRefs, n);
}

/// A column ref as a hashable key.
using RefKey = std::pair<std::string_view, std::string_view>;

struct RefKeyHash {
  size_t operator()(const RefKey& ref) const {
    const size_t table = std::hash<std::string_view>()(ref.first);
    return table ^ (std::hash<std::string_view>()(ref.second) +
                    0x9e3779b97f4a7c15ULL + (table << 6) + (table >> 2));
  }
};

/// Dense ranks, in ColumnRef order, of the refs `ref_of(i)`, i < n. A
/// merged result repeats each ref across many matches, so the distinct
/// refs are found by hashing and only they are sorted.
template <typename RefOf>
void RefRanks(size_t n, RefOf ref_of, std::vector<uint32_t>* rank) {
  std::unordered_map<RefKey, uint32_t, RefKeyHash> ids;
  ids.reserve(n);
  std::vector<uint32_t> distinct;  // by id: the first i holding that ref
  rank->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const ColumnRef& ref = ref_of(i);
    const auto [it, inserted] = ids.try_emplace(
        RefKey(ref.table, ref.column), static_cast<uint32_t>(distinct.size()));
    if (inserted) distinct.push_back(static_cast<uint32_t>(i));
    (*rank)[i] = it->second;
  }
  std::vector<uint32_t> rank_of_id, first;
  DenseRanks(
      distinct.size(),
      [&](uint32_t a, uint32_t b) {
        return ref_of(distinct[a]) < ref_of(distinct[b]);
      },
      &rank_of_id, &first);
  for (uint32_t& r : *rank) r = rank_of_id[r];
}

/// The one ranking comparator, over cells whose source and target are
/// ref ranks: score descending, then source, then target. Cells it
/// cannot order carry equal refs and scores equal under ==, which the
/// comparator sort over Match records could not order either.
struct RanksBefore {
  bool operator()(const ScoredCell& a, const ScoredCell& b) const {
    if (a.score != b.score) return a.score > b.score;
    if (a.source != b.source) return a.source < b.source;
    return a.target < b.target;
  }
};

}  // namespace

MatchResult MatchResult::Ranked(const Table& source, const Table& target,
                                std::vector<ScoredCell> cells) {
  std::vector<uint32_t> source_rank, source_first, target_rank, target_first;
  DenseRanks(
      source.num_columns(),
      [&](uint32_t a, uint32_t b) {
        return source.column(a).name() < source.column(b).name();
      },
      &source_rank, &source_first);
  DenseRanks(
      target.num_columns(),
      [&](uint32_t a, uint32_t b) {
        return target.column(a).name() < target.column(b).name();
      },
      &target_rank, &target_first);
  // Every ref shares its table, so ordering refs is ordering names.
  for (ScoredCell& cell : cells) {
    cell.source = source_rank[cell.source];
    cell.target = target_rank[cell.target];
  }
  std::sort(cells.begin(), cells.end(), RanksBefore());
  opcount::Add(opcount::Op::kRankCells, cells.size());

  MatchResult result;
  result.matches_.reserve(cells.size());
  for (const ScoredCell& cell : cells) {
    result.matches_.push_back(
        {{source.name(), source.column(source_first[cell.source]).name()},
         {target.name(), target.column(target_first[cell.target]).name()},
         cell.score});
  }
  return result;
}

void MatchResult::Sort() {
  const size_t n = matches_.size();
  std::vector<uint32_t> source_rank, target_rank;
  RefRanks(
      n, [&](size_t i) -> const ColumnRef& { return matches_[i].source; },
      &source_rank);
  RefRanks(
      n, [&](size_t i) -> const ColumnRef& { return matches_[i].target; },
      &target_rank);
  std::vector<ScoredCell> cells;
  cells.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    cells.emplace_back(source_rank[i], target_rank[i], matches_[i].score);
  }
  // Sort match indices on their cells' keys, then move each record to
  // its rank once.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return RanksBefore()(cells[a], cells[b]);
  });
  opcount::Add(opcount::Op::kRankCells, n);

  std::vector<Match> sorted;
  sorted.reserve(n);
  for (uint32_t i : order) sorted.push_back(std::move(matches_[i]));
  matches_.swap(sorted);
}

std::vector<Match> MatchResult::TopK(size_t k) const {
  std::vector<Match> out(matches_.begin(),
                         matches_.begin() +
                             static_cast<long>(std::min(k, matches_.size())));
  return out;
}

void MatchResult::FilterBelow(double threshold) {
  matches_.erase(std::remove_if(matches_.begin(), matches_.end(),
                                [&](const Match& m) {
                                  return m.score < threshold;
                                }),
                 matches_.end());
}

std::string MatchResult::ToString(size_t limit) const {
  std::ostringstream out;
  size_t n = std::min(limit, matches_.size());
  for (size_t i = 0; i < n; ++i) {
    const Match& m = matches_[i];
    out << m.source.ToString() << " -> " << m.target.ToString() << " : "
        << m.score << "\n";
  }
  if (matches_.size() > n) {
    out << "... (" << matches_.size() - n << " more)\n";
  }
  return out.str();
}

}  // namespace valentine
