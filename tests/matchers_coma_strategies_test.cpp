// Tests for COMA's combination machinery: aggregation, direction, and
// selection strategies over the first-line matcher scores; and the
// prepared-artifact kernels against an in-test reference of the
// per-pair string formulas they replaced.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "core/rng.h"
#include "datasets/tpcdi.h"
#include "harness/runner.h"
#include "matchers/coma.h"
#include "stats/descriptive.h"
#include "text/stemmer.h"
#include "text/string_similarity.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace valentine {
namespace {

Table MakeTable(const std::string& name,
                std::vector<std::pair<std::string,
                                      std::vector<std::string>>> cols) {
  Table t(name);
  for (auto& [col_name, values] : cols) {
    Column c(col_name, DataType::kString);
    for (auto& v : values) c.Append(Value::String(std::move(v)));
    EXPECT_TRUE(t.AddColumn(std::move(c)).ok());
  }
  return t;
}

TEST(ComaAggregationTest, StrategiesOrdered) {
  std::vector<ComaComponentScore> scores = {
      {"a", 0.2, 1.0}, {"b", 0.8, 3.0}, {"c", 0.5, 1.0}};
  double mx = ComaMatcher::Aggregate(scores, ComaAggregation::kMax);
  double mn = ComaMatcher::Aggregate(scores, ComaAggregation::kMin);
  double avg = ComaMatcher::Aggregate(scores, ComaAggregation::kAverage);
  double wavg = ComaMatcher::Aggregate(scores, ComaAggregation::kWeighted);
  EXPECT_DOUBLE_EQ(mx, 0.8);
  EXPECT_DOUBLE_EQ(mn, 0.2);
  EXPECT_DOUBLE_EQ(avg, 0.5);
  EXPECT_NEAR(wavg, (0.2 + 0.8 * 3 + 0.5) / 5.0, 1e-12);
  EXPECT_LE(mn, avg);
  EXPECT_LE(avg, mx);
  // The weighted mean leans toward the heavy component.
  EXPECT_GT(wavg, avg);
}

TEST(ComaAggregationTest, EmptyScores) {
  EXPECT_DOUBLE_EQ(ComaMatcher::Aggregate({}, ComaAggregation::kWeighted),
                   0.0);
}

TEST(ComaComponentScoresTest, BreakdownCoversAllSchemaMatchers) {
  ComaMatcher m;
  Column a("customer_name", DataType::kString);
  Column b("client_name", DataType::kString);
  auto scores = m.SchemaComponentScores("s", a, "t", b);
  ASSERT_EQ(scores.size(), 6u);
  std::set<std::string> names;
  for (const auto& s : scores) {
    names.insert(s.matcher);
    EXPECT_GE(s.score, 0.0);
    EXPECT_LE(s.score, 1.0);
    EXPECT_GT(s.weight, 0.0);
  }
  EXPECT_TRUE(names.count("name_trigram"));
  EXPECT_TRUE(names.count("name_synonym"));
  EXPECT_TRUE(names.count("data_type"));
  EXPECT_TRUE(names.count("name_affix"));
}

ComaOptions BaseOptions() {
  ComaOptions opt;
  opt.selection = ComaSelection::kAll;
  return opt;
}

TEST(ComaSelectionTest, AllKeepsEveryPair) {
  Table src = MakeTable("s", {{"a", {"1"}}, {"b", {"2"}}});
  Table tgt = MakeTable("t", {{"x", {"3"}}, {"y", {"4"}}});
  ComaOptions opt = BaseOptions();
  EXPECT_EQ(ComaMatcher(opt).Match(src, tgt).size(), 4u);
}

TEST(ComaSelectionTest, OneToOneKeepsAtMostMinDim) {
  Table src = MakeTable("s", {{"a", {"1"}}, {"b", {"2"}}, {"c", {"3"}}});
  Table tgt = MakeTable("t", {{"x", {"4"}}, {"y", {"5"}}});
  ComaOptions opt;
  opt.selection = ComaSelection::kOneToOne;
  MatchResult r = ComaMatcher(opt).Match(src, tgt);
  EXPECT_LE(r.size(), 2u);
  // Endpoints unique.
  std::set<std::string> srcs, tgts;
  for (const Match& m : r.matches()) {
    EXPECT_TRUE(srcs.insert(m.source.column).second);
    EXPECT_TRUE(tgts.insert(m.target.column).second);
  }
}

TEST(ComaSelectionTest, MaxNForwardLimitsPerSourceColumn) {
  // Target names have strictly decreasing similarity to "alpha", so the
  // MaxN cut is unambiguous (equal scores are all kept by design).
  Table src = MakeTable("s", {{"alpha", {"1"}}});
  Table tgt = MakeTable("t", {{"alpha", {"2"}}, {"alpra", {"3"}},
                              {"zzzz", {"4"}}});
  ComaOptions opt;
  opt.selection = ComaSelection::kMaxN;
  opt.direction = ComaDirection::kForward;
  opt.max_n = 2;
  MatchResult r = ComaMatcher(opt).Match(src, tgt);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].target.column, "alpha");
  EXPECT_EQ(r[1].target.column, "alpra");
}

TEST(ComaSelectionTest, MaxNBackwardLimitsPerTargetColumn) {
  Table src = MakeTable("s", {{"alpha", {"1"}}, {"alpra", {"2"}},
                              {"zzzz", {"3"}}});
  Table tgt = MakeTable("t", {{"alpha", {"4"}}});
  ComaOptions opt;
  opt.selection = ComaSelection::kMaxN;
  opt.direction = ComaDirection::kBackward;
  opt.max_n = 1;
  MatchResult r = ComaMatcher(opt).Match(src, tgt);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].source.column, "alpha");
}

TEST(ComaSelectionTest, BothIsIntersectionOfDirections) {
  Table src = MakeTable("s", {{"aa", {"1"}}, {"bb", {"2"}}});
  Table tgt = MakeTable("t", {{"aa", {"3"}}, {"cc", {"4"}}});
  ComaOptions both;
  both.selection = ComaSelection::kMaxN;
  both.direction = ComaDirection::kBoth;
  both.max_n = 1;
  ComaOptions fwd = both;
  fwd.direction = ComaDirection::kForward;
  ComaOptions bwd = both;
  bwd.direction = ComaDirection::kBackward;
  size_t n_both = ComaMatcher(both).Match(src, tgt).size();
  size_t n_fwd = ComaMatcher(fwd).Match(src, tgt).size();
  size_t n_bwd = ComaMatcher(bwd).Match(src, tgt).size();
  EXPECT_LE(n_both, std::min(n_fwd, n_bwd));
  EXPECT_GE(n_both, 1u);  // aa <-> aa survives both directions
}

TEST(ComaSelectionTest, MaxDeltaKeepsNearBest) {
  // "aa" matches "aa" perfectly; "ab" is nearly as good for "aa".
  Table src = MakeTable("s", {{"aa", {"1"}}});
  Table tgt = MakeTable("t", {{"aa", {"2"}}, {"ab", {"3"}}, {"zz", {"4"}}});
  ComaOptions tight;
  tight.selection = ComaSelection::kMaxDelta;
  tight.direction = ComaDirection::kForward;
  tight.delta = 0.0;
  ComaOptions loose = tight;
  loose.delta = 0.75;
  size_t n_tight = ComaMatcher(tight).Match(src, tgt).size();
  size_t n_loose = ComaMatcher(loose).Match(src, tgt).size();
  EXPECT_EQ(n_tight, 1u);
  EXPECT_GT(n_loose, n_tight);
}

TEST(ComaSelectionTest, ThresholdAppliesBeforeSelection) {
  Table src = MakeTable("s", {{"alpha", {"1"}}});
  Table tgt = MakeTable("t", {{"omega", {"2"}}});
  ComaOptions opt = BaseOptions();
  opt.threshold = 0.99;
  EXPECT_TRUE(ComaMatcher(opt).Match(src, tgt).empty());
}

TEST(ComaDirectionTest, NmGroundTruthNeedsNonOneToOneSelection) {
  // Three source columns all correspond to one target column (the ING#2
  // situation): OneToOne keeps one, MaxN-backward keeps several.
  Table src = MakeTable("s", {{"owner_team", {"p", "q"}},
                              {"support_team", {"p", "q"}},
                              {"devops_team", {"p", "q"}}});
  Table tgt = MakeTable("t", {{"team_key", {"p", "q"}}});
  ComaOptions one;
  one.strategy = ComaStrategy::kInstances;
  one.selection = ComaSelection::kOneToOne;
  ComaOptions many;
  many.strategy = ComaStrategy::kInstances;
  many.selection = ComaSelection::kMaxN;
  many.direction = ComaDirection::kBackward;
  many.max_n = 3;
  EXPECT_EQ(ComaMatcher(one).Match(src, tgt).size(), 1u);
  EXPECT_EQ(ComaMatcher(many).Match(src, tgt).size(), 3u);
}

// Aggregation strategies all yield bounded, complete score matrices.
class ComaAggregationSweep
    : public ::testing::TestWithParam<ComaAggregation> {};

TEST_P(ComaAggregationSweep, BoundedScores) {
  Table src = MakeTable("s", {{"city", {"a", "b"}}, {"income", {"1", "2"}}});
  Table tgt = MakeTable("t", {{"town", {"a", "c"}}, {"salary", {"1", "3"}}});
  ComaOptions opt;
  opt.aggregation = GetParam();
  opt.selection = ComaSelection::kAll;
  MatchResult r = ComaMatcher(opt).Match(src, tgt);
  EXPECT_EQ(r.size(), 4u);
  for (const Match& m : r.matches()) {
    EXPECT_GE(m.score, 0.0);
    EXPECT_LE(m.score, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Aggregations, ComaAggregationSweep,
                         ::testing::Values(ComaAggregation::kMax,
                                           ComaAggregation::kMin,
                                           ComaAggregation::kAverage,
                                           ComaAggregation::kWeighted));

// --- Reference: COMA computed per column pair from the names. ---
//
// Every first-line matcher re-derives its inputs from the two column
// names for each pair (lower-casing, string trigram counts in a hash
// map, tokenization, thesaurus expansion, separator stripping), the
// scores are aggregated, and selection runs on a nested score matrix.
// The prepared kernels must reproduce it bit for bit, pair for pair.
// (Thesaurus::Relatedness on strings is checked against its rule in
// knowledge_thesaurus_test.cpp.)
namespace reference {

double Trigram(const std::string& a, const std::string& b) {
  if (a.empty() && b.empty()) return 1.0;
  auto ga = CharNGrams(a, 3);
  auto gb = CharNGrams(b, 3);
  if (ga.empty() || gb.empty()) return 0.0;
  std::unordered_map<std::string, size_t> counts;
  for (const auto& g : ga) ++counts[g];
  size_t common = 0;
  for (const auto& g : gb) {
    auto it = counts.find(g);
    if (it != counts.end() && it->second > 0) {
      --it->second;
      ++common;
    }
  }
  return 2.0 * common / static_cast<double>(ga.size() + gb.size());
}

double Synonym(const Thesaurus& thesaurus, const std::string& a,
               const std::string& b) {
  struct Tok {
    std::string raw;
    std::string stem;
  };
  auto normalize = [&](const std::string& name) {
    std::vector<Tok> tokens;
    for (const std::string& t : TokenizeIdentifier(name)) {
      std::string raw = thesaurus.Expand(t);
      tokens.push_back({raw, StemToken(raw)});
    }
    return tokens;
  };
  std::vector<Tok> ta = normalize(a);
  std::vector<Tok> tb = normalize(b);
  if (ta.empty() || tb.empty()) return 0.0;
  auto token_sim = [&](const Tok& x, const Tok& y) {
    if (x.stem == y.stem) return 1.0;
    return std::max(thesaurus.Relatedness(x.raw, y.raw),
                    thesaurus.Relatedness(x.stem, y.stem));
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

double Affix(const std::string& a, const std::string& b) {
  auto strip = [](const std::string& s) {
    std::string out;
    for (char c : ToLower(s)) {
      if (c != '_' && c != '-' && c != ' ') out.push_back(c);
    }
    return out;
  };
  const std::string la = strip(a);
  const std::string lb = strip(b);
  if (la.empty() || lb.empty()) return 0.0;
  return static_cast<double>(LongestCommonSubstring(la, lb)) /
         static_cast<double>(std::min(la.size(), lb.size()));
}

std::vector<ComaComponentScore> SchemaScores(const ComaOptions& opt,
                                             const Thesaurus& thesaurus,
                                             const std::string& ta,
                                             const Column& a,
                                             const std::string& tb,
                                             const Column& b) {
  const auto a_tokens = TokenizeIdentifier(a.name());
  const auto b_tokens = TokenizeIdentifier(b.name());
  std::vector<ComaComponentScore> scores;
  scores.push_back(
      {"name_trigram", Trigram(ToLower(a.name()), ToLower(b.name())), 1.5});
  scores.push_back(
      {"name_synonym", Synonym(thesaurus, a.name(), b.name()), 2.0});
  scores.push_back({"name_token_edit",
                    BestMatchAverage(a_tokens, b_tokens,
                                     &JaroWinklerSimilarity),
                    2.0});
  scores.push_back({"name_path",
                    Trigram(ToLower(ta) + "." + ToLower(a.name()),
                            ToLower(tb) + "." + ToLower(b.name())),
                    1.0});
  scores.push_back({"name_affix", Affix(a.name(), b.name()), 1.5});
  scores.push_back(
      {"data_type", ComaMatcher::DataTypeSim(a.type(), b.type()), 1.0});
  if (opt.use_soundex) {
    scores.push_back(
        {"name_soundex",
         BestMatchAverage(a_tokens, b_tokens, &SoundexSimilarity), 0.5});
  }
  return scores;
}

std::vector<std::pair<size_t, size_t>> SelectPairs(
    const std::vector<std::vector<double>>& score, const ComaOptions& opt) {
  const size_t ns = score.size();
  const size_t nt = ns == 0 ? 0 : score[0].size();
  std::vector<std::pair<size_t, size_t>> out;
  auto passes = [&](size_t i, size_t j) {
    return score[i][j] >= opt.threshold;
  };
  if (opt.selection == ComaSelection::kAll) {
    for (size_t i = 0; i < ns; ++i) {
      for (size_t j = 0; j < nt; ++j) {
        if (passes(i, j)) out.emplace_back(i, j);
      }
    }
    return out;
  }
  if (opt.selection == ComaSelection::kOneToOne) {
    std::vector<std::tuple<double, size_t, size_t>> ranked;
    for (size_t i = 0; i < ns; ++i) {
      for (size_t j = 0; j < nt; ++j) {
        if (passes(i, j)) ranked.emplace_back(score[i][j], i, j);
      }
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
      const auto& [xs, xi, xj] = x;
      const auto& [ys, yi, yj] = y;
      if (xs != ys) return xs > ys;
      if (xi != yi) return xi < yi;
      return xj < yj;
    });
    std::vector<bool> used_src(ns, false), used_tgt(nt, false);
    for (const auto& [v, i, j] : ranked) {
      if (used_src[i] || used_tgt[j]) continue;
      used_src[i] = used_tgt[j] = true;
      out.emplace_back(i, j);
    }
    return out;
  }
  auto keep = [&](size_t i, size_t j, bool forward) {
    const size_t n = forward ? nt : ns;
    auto at = [&](size_t k) { return forward ? score[i][k] : score[k][j]; };
    if (opt.selection == ComaSelection::kMaxN) {
      size_t better = 0;
      for (size_t k = 0; k < n; ++k) {
        if (at(k) > score[i][j]) ++better;
      }
      return better < opt.max_n;
    }
    double best = 0.0;
    for (size_t k = 0; k < n; ++k) best = std::max(best, at(k));
    return score[i][j] >= best - opt.delta;
  };
  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = 0; j < nt; ++j) {
      if (!passes(i, j)) continue;
      bool kept = false;
      switch (opt.direction) {
        case ComaDirection::kForward: kept = keep(i, j, true); break;
        case ComaDirection::kBackward: kept = keep(i, j, false); break;
        case ComaDirection::kBoth:
          kept = keep(i, j, true) && keep(i, j, false);
          break;
      }
      if (kept) out.emplace_back(i, j);
    }
  }
  return out;
}

/// Component scores per column pair: depends on the strategy and the
/// optional matchers only, so the sweep computes it once and reuses it
/// across aggregations and selections.
using Components = std::vector<std::vector<std::vector<ComaComponentScore>>>;

Components ComponentMatrix(const ComaOptions& opt, const Table& src,
                           const Table& tgt) {
  const Thesaurus& thesaurus = Thesaurus::Default();
  const bool instances = opt.strategy == ComaStrategy::kInstances;
  // Value-side inputs were always built once per column.
  struct Values {
    std::unordered_set<std::string> set;
    TextProfile text;
    NumericStats nums;
    double numfrac;
  };
  auto values_of = [&](const Table& table) {
    std::vector<Values> out;
    if (!instances) return out;
    for (const Column& c : table.columns()) {
      std::vector<std::string> distinct = c.DistinctStrings();
      if (opt.max_distinct_values > 0 &&
          distinct.size() > opt.max_distinct_values) {
        distinct.resize(opt.max_distinct_values);
      }
      out.push_back({std::unordered_set<std::string>(distinct.begin(),
                                                     distinct.end()),
                     ComputeTextProfile(c),
                     ComputeNumericStats(c.NumericValues()),
                     c.NumericFraction()});
    }
    return out;
  };
  const std::vector<Values> va = values_of(src);
  const std::vector<Values> vb = values_of(tgt);
  std::vector<std::vector<double>> tfidf;
  if (instances && opt.use_tfidf_tokens) {
    tfidf = TfIdfColumnSimilarity(src, tgt, opt.max_distinct_values);
  }
  Components out(src.num_columns());
  for (size_t i = 0; i < src.num_columns(); ++i) {
    const Column& a = src.column(i);
    for (size_t j = 0; j < tgt.num_columns(); ++j) {
      const Column& b = tgt.column(j);
      auto scores = SchemaScores(opt, thesaurus, src.name(), a, tgt.name(), b);
      if (instances) {
        scores.push_back(
            {"value_overlap", JaccardSimilarity(va[i].set, vb[j].set), 3.0});
        double prof;
        if (va[i].numfrac > 0.9 && vb[j].numfrac > 0.9) {
          prof = NumericStatsSimilarity(va[i].nums, vb[j].nums);
        } else {
          prof = TextProfileSimilarity(va[i].text, vb[j].text);
        }
        scores.push_back({"instance_profile", prof, 1.5});
        if (opt.use_tfidf_tokens) {
          scores.push_back({"tfidf_tokens", tfidf[i][j], 2.0});
        }
      }
      out[i].push_back(std::move(scores));
    }
  }
  return out;
}

MatchResult Match(const ComaOptions& opt, const Components& components,
                  const Table& src, const Table& tgt) {
  std::vector<std::vector<double>> combined;
  for (const auto& row : components) {
    combined.emplace_back();
    for (const auto& scores : row) {
      combined.back().push_back(
          ComaMatcher::Aggregate(scores, opt.aggregation));
    }
  }
  MatchResult result;
  for (const auto& [i, j] : SelectPairs(combined, opt)) {
    result.Add({src.name(), src.column(i).name()},
               {tgt.name(), tgt.column(j).name()}, combined[i][j]);
  }
  result.Sort();
  return result;
}

}  // namespace reference

/// Lake-shaped tables: family-prefixed identifiers in snake, camel and
/// digit-suffixed spellings over thesaurus words, abbreviations and
/// plurals, with string and numeric columns.
Table MakeLakeTable(Rng& rng, size_t index) {
  static const std::vector<std::string> kWords = {
      "cust",  "customer", "client", "addr",     "address", "city",
      "towns", "zip",      "dob",    "salary",   "income",  "id",
      "name",  "qty",      "amount", "addresses", "x",      "order"};
  Table table("lake" + std::to_string(index) + "_shard" +
              std::to_string(rng.Index(5)));
  const size_t columns = 3 + rng.Index(7);
  for (size_t c = 0; c < columns; ++c) {
    std::string name = std::string("f").append(std::to_string(index % 3));
    const size_t tokens = 1 + rng.Index(3);
    for (size_t t = 0; t < tokens; ++t) {
      std::string word = rng.Pick(kWords);
      switch (rng.Index(3)) {
        case 0: name += "_" + word; break;
        case 1:
          word[0] = static_cast<char>(std::toupper(
              static_cast<unsigned char>(word[0])));
          name += word;
          break;
        default: name += "-" + word + std::to_string(rng.Index(3)); break;
      }
    }
    name.append("_").append(std::to_string(c));  // unique within the table
    const bool numeric = rng.Bernoulli(0.4);
    Column column(name, numeric ? DataType::kInt64 : DataType::kString);
    for (size_t r = 0; r < 12; ++r) {
      if (numeric) {
        column.Append(Value::Int(static_cast<int64_t>(rng.Index(50))));
      } else {
        column.Append(Value::String(rng.Pick(kWords) + " " +
                                    std::to_string(rng.Index(20))));
      }
    }
    EXPECT_TRUE(table.AddColumn(std::move(column)).ok());
  }
  return table;
}

std::vector<std::pair<Table, Table>> ReferencePairs() {
  std::vector<std::pair<Table, Table>> pairs;
  PairSuiteOptions suite;
  suite.row_overlaps = {0.5};
  suite.column_overlaps = {0.5};
  suite.seed = 11;
  std::vector<DatasetPair> fabricated =
      BuildFabricatedSuite(MakeTpcdiProspect(15, 2026), suite);
  for (size_t k = 0; k < fabricated.size() && pairs.size() < 4; k += 4) {
    pairs.emplace_back(fabricated[k].source, fabricated[k].target);
  }
  Rng rng(515);
  for (size_t k = 0; k < 4; ++k) {
    Table a = MakeLakeTable(rng, k);
    Table b = MakeLakeTable(rng, k + (k % 2));
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

uint64_t ScoreBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Prepare + Score against the per-pair reference across every strategy
// axis and optional matcher: same pairs, same order, bit-equal scores.
TEST(ComaReferenceTest, PreparedKernelsMatchPerPairFormulas) {
  const std::vector<std::pair<Table, Table>> pairs = ReferencePairs();
  std::vector<std::pair<ComaSelection, ComaDirection>> selections = {
      {ComaSelection::kAll, ComaDirection::kBoth},
      {ComaSelection::kOneToOne, ComaDirection::kBoth}};
  for (ComaSelection sel : {ComaSelection::kMaxN, ComaSelection::kMaxDelta}) {
    for (ComaDirection dir : {ComaDirection::kForward,
                              ComaDirection::kBackward, ComaDirection::kBoth}) {
      selections.emplace_back(sel, dir);
    }
  }
  size_t compared = 0;
  for (ComaStrategy strategy :
       {ComaStrategy::kSchema, ComaStrategy::kInstances}) {
    for (bool soundex : {false, true}) {
      for (bool tfidf : {false, true}) {
        ComaOptions base;
        base.strategy = strategy;
        base.use_soundex = soundex;
        base.use_tfidf_tokens = tfidf;
        for (size_t p = 0; p < pairs.size(); ++p) {
          const auto& [src, tgt] = pairs[p];
          const reference::Components components =
              reference::ComponentMatrix(base, src, tgt);
          // The strategy axes are score-stage options: one pair of
          // artifacts serves every aggregation and selection.
          MatchContext context;
          const ComaMatcher preparer(base);
          auto ps = preparer.Prepare(src, context);
          auto pt = preparer.Prepare(tgt, context);
          ASSERT_TRUE(ps.ok() && pt.ok());
          for (ComaAggregation agg :
               {ComaAggregation::kMax, ComaAggregation::kMin,
                ComaAggregation::kAverage, ComaAggregation::kWeighted}) {
            for (const auto& [sel, dir] : selections) {
              ComaOptions opt = base;
              opt.aggregation = agg;
              opt.selection = sel;
              opt.direction = dir;
              const ComaMatcher matcher(opt);
              const MatchResult want =
                  reference::Match(opt, components, src, tgt);
              ASSERT_EQ(matcher.PrepareKey(), preparer.PrepareKey());
              auto got = matcher.Score(**ps, **pt, nullptr, context);
              ASSERT_TRUE(got.ok());
              const std::string where =
                  "strategy=" + std::to_string(static_cast<int>(strategy)) +
                  " agg=" + std::to_string(static_cast<int>(agg)) +
                  " sel=" + std::to_string(static_cast<int>(sel)) +
                  " dir=" + std::to_string(static_cast<int>(dir)) +
                  " soundex=" + std::to_string(soundex) +
                  " tfidf=" + std::to_string(tfidf) +
                  " pair=" + std::to_string(p);
              ASSERT_EQ(got->size(), want.size()) << where;
              for (size_t k = 0; k < want.size(); ++k) {
                const Match& g = (*got)[k];
                const Match& w = want[k];
                ASSERT_TRUE(g.source == w.source && g.target == w.target)
                    << where << " rank " << k;
                ASSERT_EQ(ScoreBits(g.score), ScoreBits(w.score))
                    << where << " rank " << k;
              }
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 2u * 4u * 8u * 2u * 2u * pairs.size());
}

// The public per-pair helpers run the same kernels on inputs they derive
// themselves, so they agree with the reference formulas too.
TEST(ComaReferenceTest, PublicHelpersMatchPerPairFormulas) {
  const ComaMatcher matcher;
  const Thesaurus& thesaurus = Thesaurus::Default();
  const std::vector<std::string> names = {
      "cust_addr", "CustomerAddress", "client-id", "zip", "", "Addresses",
      "dob",       "salary_2019",     "x",         "order__qty"};
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      EXPECT_EQ(ScoreBits(matcher.NameTrigramSim(a, b)),
                ScoreBits(reference::Trigram(ToLower(a), ToLower(b))))
          << a << " / " << b;
      EXPECT_EQ(ScoreBits(matcher.NameSynonymSim(a, b)),
                ScoreBits(reference::Synonym(thesaurus, a, b)))
          << a << " / " << b;
      EXPECT_EQ(ScoreBits(ComaMatcher::NameAffixSim(a, b)),
                ScoreBits(reference::Affix(a, b)))
          << a << " / " << b;
      EXPECT_EQ(ScoreBits(matcher.NamePathSim("Tab", a, "tab_2", b)),
                ScoreBits(reference::Trigram("tab." + ToLower(a),
                                             "tab_2." + ToLower(b))))
          << a << " / " << b;
      Column ca(a, DataType::kString);
      Column cb(b, DataType::kInt64);
      ComaOptions opt;
      opt.use_soundex = true;
      const auto got =
          ComaMatcher(opt).SchemaComponentScores("s", ca, "t", cb);
      const auto want =
          reference::SchemaScores(opt, thesaurus, "s", ca, "t", cb);
      ASSERT_EQ(got.size(), want.size());
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_STREQ(got[k].matcher, want[k].matcher);
        EXPECT_EQ(ScoreBits(got[k].score), ScoreBits(want[k].score))
            << a << " / " << b << " " << want[k].matcher;
        EXPECT_EQ(got[k].weight, want[k].weight);
      }
    }
  }
}

}  // namespace
}  // namespace valentine
