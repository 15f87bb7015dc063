#include "matchers/match_result.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/rng.h"

namespace valentine {
namespace {

MatchResult MakeResult() {
  MatchResult r;
  r.Add({"s", "a"}, {"t", "x"}, 0.5);
  r.Add({"s", "b"}, {"t", "y"}, 0.9);
  r.Add({"s", "c"}, {"t", "z"}, 0.1);
  return r;
}

TEST(MatchResultTest, SortDescending) {
  MatchResult r = MakeResult();
  r.Sort();
  EXPECT_DOUBLE_EQ(r[0].score, 0.9);
  EXPECT_DOUBLE_EQ(r[1].score, 0.5);
  EXPECT_DOUBLE_EQ(r[2].score, 0.1);
}

TEST(MatchResultTest, SortTiesDeterministic) {
  MatchResult r;
  r.Add({"s", "b"}, {"t", "y"}, 0.5);
  r.Add({"s", "a"}, {"t", "x"}, 0.5);
  r.Add({"s", "a"}, {"t", "w"}, 0.5);
  r.Sort();
  EXPECT_EQ(r[0].source.column, "a");
  EXPECT_EQ(r[0].target.column, "w");
  EXPECT_EQ(r[1].target.column, "x");
  EXPECT_EQ(r[2].source.column, "b");
}

TEST(MatchResultTest, TopK) {
  MatchResult r = MakeResult();
  r.Sort();
  auto top = r.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.9);
  auto all = r.TopK(100);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(r.TopK(0).empty());
}

TEST(MatchResultTest, FilterBelow) {
  MatchResult r = MakeResult();
  r.FilterBelow(0.5);
  EXPECT_EQ(r.size(), 2u);
  for (const Match& m : r.matches()) EXPECT_GE(m.score, 0.5);
}

TEST(MatchResultTest, FilterBelowKeepsEqual) {
  MatchResult r;
  r.Add({"s", "a"}, {"t", "x"}, 0.5);
  r.FilterBelow(0.5);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MatchResultTest, ToStringTruncates) {
  MatchResult r = MakeResult();
  r.Sort();
  std::string s = r.ToString(2);
  EXPECT_NE(s.find("s.b -> t.y"), std::string::npos);
  EXPECT_NE(s.find("(1 more)"), std::string::npos);
}

TEST(MatchResultTest, EmptyResult) {
  MatchResult r;
  EXPECT_TRUE(r.empty());
  r.Sort();
  EXPECT_TRUE(r.TopK(5).empty());
  EXPECT_EQ(r.ToString(), "");
}

TEST(MatchTest, SamePair) {
  Match a{{"s", "a"}, {"t", "x"}, 0.1};
  Match b{{"s", "a"}, {"t", "x"}, 0.9};
  Match c{{"s", "a"}, {"t", "y"}, 0.1};
  EXPECT_TRUE(a.SamePair(b));
  EXPECT_FALSE(a.SamePair(c));
}

// --- The ordering core against the comparator sort it replaced. ---

/// MatchResult::Sort() as first written: std::sort over Match records.
std::vector<Match> ReferenceSort(std::vector<Match> matches) {
  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) {
              if (a.score != b.score) return a.score > b.score;
              if (!(a.source == b.source)) return a.source < b.source;
              return a.target < b.target;
            });
  return matches;
}

void ExpectSameBytes(const std::vector<Match>& got,
                     const std::vector<Match>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].source == want[i].source &&
                got[i].target == want[i].target &&
                got[i].score == want[i].score &&
                std::signbit(got[i].score) == std::signbit(want[i].score))
        << what << ": rank " << i << " is " << got[i].source.ToString()
        << " > " << got[i].target.ToString() << " = " << got[i].score
        << ", want " << want[i].source.ToString() << " > "
        << want[i].target.ToString() << " = " << want[i].score;
  }
}

/// A table of `n` one-row columns named from a five-name pool, so most
/// tables repeat a name (Table allows it).
Table PoolTable(const std::string& name, size_t n, Rng* rng) {
  static const char* kPool[] = {"id", "name", "Name", "name_", "zip"};
  Table table(name);
  for (size_t i = 0; i < n; ++i) {
    Column c(kPool[rng->Index(5)], DataType::kString);
    c.Append(Value::String("v"));
    EXPECT_TRUE(table.AddColumn(std::move(c)).ok());
  }
  return table;
}

/// Seeded tie-heavy matrices: scores from 3-4 distinct values, pair
/// subsets dense, random-sparse or one-to-one (as COMA SelectPairs, the
/// SF filters and Distribution links emit), cells in shuffled order,
/// tables from 0x0 up to 9x9.
TEST(RankedCellsTest, MatchesTheComparatorSortOnRandomMatrices) {
  const std::vector<std::vector<double>> kScoreSets = {
      {0.0, 0.5, 1.0}, {0.25, 0.5, 0.75, 1.0}, {0.1, 0.2, 0.30000000000000004}};
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const Table source = PoolTable("src", rng.Index(10), &rng);
    const Table target = PoolTable("tgt", rng.Index(10), &rng);
    const std::vector<double>& values =
        kScoreSets[rng.Index(kScoreSets.size())];
    const size_t shape = rng.Index(3);  // 0 dense, 1 sparse, 2 one-to-one
    std::vector<ScoredCell> cells;
    std::vector<bool> target_used(target.num_columns(), false);
    for (size_t i = 0; i < source.num_columns(); ++i) {
      for (size_t j = 0; j < target.num_columns(); ++j) {
        if (shape == 1 && !rng.Bernoulli(0.3)) continue;
        if (shape == 2 && (target_used[j] || !rng.Bernoulli(0.5))) continue;
        if (shape == 2) target_used[j] = true;
        cells.emplace_back(i, j, values[rng.Index(values.size())]);
        if (shape == 2) break;
      }
    }
    for (size_t k = cells.size(); k > 1; --k) {
      std::swap(cells[k - 1], cells[rng.Index(k)]);
    }
    std::vector<Match> added;
    for (const ScoredCell& c : cells) {
      added.push_back({{source.name(), source.column(c.source).name()},
                       {target.name(), target.column(c.target).name()},
                       c.score});
    }
    const std::string what = "seed " + std::to_string(seed);
    ExpectSameBytes(MatchResult::Ranked(source, target, cells).matches(),
                    ReferenceSort(added), what + " Ranked");
    MatchResult merged;
    for (const Match& m : added) merged.Add(m);
    merged.Sort();
    ExpectSameBytes(merged.matches(), ReferenceSort(added), what + " Sort");
  }
}

TEST(RankedCellsTest, EmptyAndOneByOneInputs) {
  Rng rng(7);
  const Table empty("e");
  EXPECT_TRUE(MatchResult::Ranked(empty, empty, {}).empty());
  const Table one = PoolTable("one", 1, &rng);
  const Table three = PoolTable("three", 3, &rng);
  EXPECT_TRUE(MatchResult::Ranked(one, three, {}).empty());

  MatchResult single = MatchResult::Ranked(one, one, {ScoredCell(0, 0, 0.5)});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].source, (ColumnRef{"one", one.column(0).name()}));
  EXPECT_EQ(single[0].target, (ColumnRef{"one", one.column(0).name()}));
  EXPECT_EQ(single[0].score, 0.5);
}

/// Results merged from several table pairs (Ensemble, feedback, the
/// approximate matcher) keep Sort()'s contract: refs order by table,
/// then column.
TEST(RankedCellsTest, MixedTableResultsSortLikeTheComparator) {
  const char* kTables[] = {"a", "b", "ab"};
  const char* kColumns[] = {"x", "y", "x_", "X"};
  const double kScores[] = {0.0, 0.5, 1.0};
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    std::vector<Match> added;
    const size_t n = rng.Index(40);
    for (size_t k = 0; k < n; ++k) {
      added.push_back({{kTables[rng.Index(3)], kColumns[rng.Index(4)]},
                       {kTables[rng.Index(3)], kColumns[rng.Index(4)]},
                       kScores[rng.Index(3)]});
    }
    MatchResult merged;
    for (const Match& m : added) merged.Add(m);
    merged.Sort();
    ExpectSameBytes(merged.matches(), ReferenceSort(added),
                    "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace valentine
