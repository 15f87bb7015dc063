#include "matchers/jaccard_levenshtein.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rng.h"

namespace valentine {
namespace {

Column MakeStringColumn(const std::string& name,
                        std::vector<std::string> values) {
  Column c(name, DataType::kString);
  for (auto& v : values) c.Append(Value::String(std::move(v)));
  return c;
}

Table TwoColumnTable(const std::string& name, Column a, Column b) {
  Table t(name);
  EXPECT_TRUE(t.AddColumn(std::move(a)).ok());
  EXPECT_TRUE(t.AddColumn(std::move(b)).ok());
  return t;
}

TEST(JaccardLevenshteinTest, RanksOverlappingColumnFirst) {
  Table src = TwoColumnTable(
      "src", MakeStringColumn("fruit", {"apple", "pear", "plum"}),
      MakeStringColumn("city", {"boston", "denver", "austin"}));
  Table tgt = TwoColumnTable(
      "tgt", MakeStringColumn("f", {"apple", "pear", "kiwi"}),
      MakeStringColumn("c", {"boston", "miami", "dallas"}));

  JaccardLevenshteinMatcher m;
  MatchResult r = m.Match(src, tgt);
  ASSERT_EQ(r.size(), 4u);
  // fruit-f overlap 2/4 = 0.5 is the top match.
  EXPECT_EQ(r[0].source.column, "fruit");
  EXPECT_EQ(r[0].target.column, "f");
  EXPECT_DOUBLE_EQ(r[0].score, 0.5);
}

TEST(JaccardLevenshteinTest, FuzzyThresholdMatters) {
  Table src = TwoColumnTable("src",
                             MakeStringColumn("a", {"johnson", "smith"}),
                             MakeStringColumn("b", {"x", "y"}));
  Table tgt = TwoColumnTable("tgt",
                             MakeStringColumn("a2", {"jhonson", "smiht"}),
                             MakeStringColumn("b2", {"q", "r"}));
  JaccardLevenshteinOptions strict;
  strict.threshold = 0.0;
  EXPECT_DOUBLE_EQ(JaccardLevenshteinMatcher(strict).Match(src, tgt)[0].score,
                   0.0);
  JaccardLevenshteinOptions fuzzy;
  fuzzy.threshold = 0.5;
  MatchResult r = JaccardLevenshteinMatcher(fuzzy).Match(src, tgt);
  EXPECT_EQ(r[0].source.column, "a");
  EXPECT_DOUBLE_EQ(r[0].score, 1.0);
}

TEST(JaccardLevenshteinTest, AllPairsReturned) {
  Table src = TwoColumnTable("src", MakeStringColumn("a", {"1"}),
                             MakeStringColumn("b", {"2"}));
  Table tgt = TwoColumnTable("tgt", MakeStringColumn("c", {"3"}),
                             MakeStringColumn("d", {"4"}));
  MatchResult r = JaccardLevenshteinMatcher().Match(src, tgt);
  EXPECT_EQ(r.size(), 4u);  // the baseline ranks every pair
}

TEST(JaccardLevenshteinTest, DistinctCapRespected) {
  Column big("big", DataType::kString);
  for (int i = 0; i < 100; ++i) big.Append(Value::Int(i));
  Table src("src");
  ASSERT_TRUE(src.AddColumn(std::move(big)).ok());
  Table tgt = src;
  tgt.set_name("tgt");
  JaccardLevenshteinOptions opt;
  opt.max_distinct_values = 10;
  opt.threshold = 0.0;
  MatchResult r = JaccardLevenshteinMatcher(opt).Match(src, tgt);
  // With the cap, both sides keep the same first 10 distinct values.
  EXPECT_DOUBLE_EQ(r[0].score, 1.0);
}

TEST(JaccardLevenshteinTest, NullsIgnored) {
  Column a("a", DataType::kString);
  a.Append(Value::String("x"));
  a.Append(Value::Null());
  Table src("src");
  ASSERT_TRUE(src.AddColumn(std::move(a)).ok());
  Column b("b", DataType::kString);
  b.Append(Value::String("x"));
  b.Append(Value::String("x"));
  Table tgt("tgt");
  ASSERT_TRUE(tgt.AddColumn(std::move(b)).ok());
  MatchResult r = JaccardLevenshteinMatcher().Match(src, tgt);
  EXPECT_DOUBLE_EQ(r[0].score, 1.0);  // distinct sets both {"x"}
}

TEST(JaccardLevenshteinTest, MetadataDeclared) {
  JaccardLevenshteinMatcher m;
  EXPECT_EQ(m.Name(), "JaccardLevenshtein");
  EXPECT_EQ(m.Category(), MatcherCategory::kInstanceBased);
  ASSERT_EQ(m.Capabilities().size(), 1u);
  EXPECT_EQ(m.Capabilities()[0], MatchType::kValueOverlap);
}

// ---------------------------------------------------------------------
// The fuzzy-Jaccard kernel against the implementation it replaced.

/// Byte-wise bag distance: the larger of the two sides' byte-multiset
/// surpluses, a lower bound on Levenshtein. The old kernel's prefilter
/// undercounted the second side's surplus for bytes both sides hold;
/// any lower bound gives the same scores, so the reference uses this.
size_t ByteBagDistance(const std::string& x, const std::string& y) {
  std::array<int, 256> counts{};
  for (unsigned char c : x) ++counts[c];
  for (unsigned char c : y) --counts[c];
  size_t surplus_x = 0;
  size_t surplus_y = 0;
  for (int v : counts) {
    if (v > 0) surplus_x += static_cast<size_t>(v);
    if (v < 0) surplus_y += static_cast<size_t>(-v);
  }
  return std::max(surplus_x, surplus_y);
}

/// FuzzyJaccard as it was before the column kernel: an unordered_map
/// over b for the exact phase, fresh leftover string vectors, and the
/// byte-wise bag prefilter in front of the banded DP. Kept here as the
/// reference the kernel must reproduce bit for bit.
double ReferenceFuzzyJaccard(const std::vector<std::string>& a,
                             const std::vector<std::string>& b,
                             double max_distance, LevenshteinKernel kernel) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::unordered_map<std::string, size_t> b_counts;
  for (const auto& s : b) ++b_counts[s];
  std::vector<std::string> a_left;
  size_t matched = 0;
  for (const auto& s : a) {
    auto it = b_counts.find(s);
    if (it != b_counts.end() && it->second > 0) {
      --it->second;
      ++matched;
    } else {
      a_left.push_back(s);
    }
  }
  std::vector<std::string> b_left;
  for (const auto& s : b) {
    auto it = b_counts.find(s);
    if (it != b_counts.end() && it->second > 0) {
      --it->second;
      b_left.push_back(s);
    }
  }
  std::vector<bool> b_used(b_left.size(), false);
  if (max_distance > 0.0) {
    for (const auto& s : a_left) {
      for (size_t j = 0; j < b_left.size(); ++j) {
        if (b_used[j]) continue;
        size_t max_len = std::max(s.size(), b_left[j].size());
        if (max_len == 0) continue;
        size_t min_len = std::min(s.size(), b_left[j].size());
        if (static_cast<double>(max_len - min_len) >
            max_distance * static_cast<double>(max_len)) {
          continue;
        }
        size_t dist;
        if (kernel == LevenshteinKernel::kBanded) {
          size_t bound = static_cast<size_t>(
                             max_distance * static_cast<double>(max_len)) +
                         1;
          if (ByteBagDistance(s, b_left[j]) > bound) continue;
          dist = LevenshteinWithin(s, b_left[j], bound);
          if (dist > bound) continue;
        } else {
          dist = LevenshteinDistance(s, b_left[j]);
        }
        double norm = static_cast<double>(dist) /
                      static_cast<double>(max_len);
        if (norm <= max_distance) {
          b_used[j] = true;
          ++matched;
          break;
        }
      }
    }
  }
  size_t uni = a.size() + b.size() - matched;
  if (uni == 0) return 1.0;
  return static_cast<double>(matched) / static_cast<double>(uni);
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// One seeded value generator per corpus shape.
struct Corpus {
  const char* name;
  std::string (*make)(Rng& rng);
};

std::string RandomFrom(Rng& rng, const std::string& alphabet, size_t len) {
  std::string s(len, ' ');
  for (char& c : s) c = alphabet[rng.Index(alphabet.size())];
  return s;
}

const std::vector<Corpus>& Corpora() {
  static const std::vector<Corpus> kCorpora = {
      {"ids", [](Rng& rng) {
         return std::string("id_") +
                RandomFrom(rng, "0123456789", 1 + rng.Index(6));
       }},
      {"digits", [](Rng& rng) {
         return RandomFrom(rng, "0123456789", rng.Index(12));
       }},
      {"words", [](Rng& rng) {
         return RandomFrom(rng, "abcdeilnorst", 2 + rng.Index(9));
       }},
      {"dates", [](Rng& rng) {
         char buf[40];
         std::snprintf(buf, sizeof(buf), "20%02d-%02d-%02d",
                       static_cast<int>(rng.Index(30)),
                       1 + static_cast<int>(rng.Index(12)),
                       1 + static_cast<int>(rng.Index(28)));
         return std::string(buf);
       }},
      {"mixed_case", [](Rng& rng) {
         return RandomFrom(rng, "aAbBcCdDeE_", 3 + rng.Index(7));
       }},
      {"utf8", [](Rng& rng) {
         // Two-byte UTF-8 sequences plus raw bytes >= 0x80 and ASCII.
         static const std::vector<std::string> kPieces = {
             "\xc3\xa9", "\xc3\xbc", "\xce\xb1", "\xff", "\x80", "\xc0",
             "a", "b", "-"};
         std::string s;
         const size_t n = 1 + rng.Index(6);
         for (size_t i = 0; i < n; ++i) s += rng.Pick(kPieces);
         return s;
       }},
      {"empty", [](Rng& rng) {
         return rng.Bernoulli(0.3) ? std::string()
                                   : RandomFrom(rng, "ab", rng.Index(3));
       }},
      {"around_64", [](Rng& rng) {
         // Lengths 56-72 around a shared stem, so the bit-parallel
         // kernel (a-side <= 64 bytes) and the banded fallback both run.
         std::string s(56 + rng.Index(17), 'x');
         for (size_t k = 0; k < s.size(); ++k) {
           s[k] = "stem_of_a_long_value_"[k % 21];
         }
         for (int edits = static_cast<int>(rng.Index(4)); edits > 0;
              --edits) {
           s[rng.Index(s.size())] = "qz0"[rng.Index(3)];
         }
         return s;
       }},
  };
  return kCorpora;
}

/// One column of `n` values: draws from a shared pool (so the two sides
/// overlap exactly), lightly mutated pool entries (so they overlap
/// fuzzily) and fresh values. With `distinct` the list keeps only first
/// occurrences, as JL's capped lists do.
std::vector<std::string> MakeColumn(const Corpus& corpus,
                                    const std::vector<std::string>& pool,
                                    size_t n, bool distinct, Rng& rng) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    std::string v;
    const size_t roll = rng.Index(3);
    if (roll == 0) {
      v = rng.Pick(pool);
    } else if (roll == 1) {
      v = rng.Pick(pool);
      if (!v.empty()) v[rng.Index(v.size())] = "xy9\xc3"[rng.Index(4)];
    } else {
      v = corpus.make(rng);
    }
    if (distinct && std::find(out.begin(), out.end(), v) != out.end()) {
      continue;
    }
    out.push_back(std::move(v));
  }
  return out;
}

const std::vector<double>& SweepThresholds() {
  static const std::vector<double> kThresholds = {
      0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  return kThresholds;
}

TEST(FuzzyJaccardKernelTest, MatchesReferenceBitForBit) {
  Rng rng(20261017);
  size_t compared = 0;
  for (const Corpus& corpus : Corpora()) {
    std::vector<std::string> pool;
    for (int i = 0; i < 12; ++i) pool.push_back(corpus.make(rng));
    for (bool distinct : {true, false}) {
      for (int trial = 0; trial < 6; ++trial) {
        const std::vector<std::string> a =
            MakeColumn(corpus, pool, rng.Index(20), distinct, rng);
        const std::vector<std::string> b =
            MakeColumn(corpus, pool, rng.Index(20), distinct, rng);
        for (double t : SweepThresholds()) {
          for (LevenshteinKernel kernel :
               {LevenshteinKernel::kBanded, LevenshteinKernel::kNaive}) {
            EXPECT_EQ(Bits(FuzzyJaccard(a, b, t, kernel)),
                      Bits(ReferenceFuzzyJaccard(a, b, t, kernel)))
                << corpus.name << (distinct ? " distinct" : " duplicates")
                << " trial " << trial << " threshold " << t << " kernel "
                << static_cast<int>(kernel);
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, Corpora().size() * 2 * 6 * SweepThresholds().size() * 2);
}

Table StringTable(const std::string& name,
                  const std::vector<std::vector<std::string>>& columns) {
  Table t(name);
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string column = std::string("c") + std::to_string(i);
    EXPECT_TRUE(t.AddColumn(MakeStringColumn(column, columns[i])).ok());
  }
  return t;
}

// Prepare + Score on tables built from the corpora: every column pair's
// score is the reference over the two columns' distinct lists.
TEST(FuzzyJaccardKernelTest, PrepareScoreMatchesReferenceBitForBit) {
  Rng rng(4242);
  for (const Corpus& corpus : Corpora()) {
    std::vector<std::string> pool;
    for (int i = 0; i < 12; ++i) pool.push_back(corpus.make(rng));
    // A table's columns share its row count; values repeat within a
    // column, and Prepare keeps the first-seen distinct list.
    const size_t src_rows = 1 + rng.Index(24);
    const size_t tgt_rows = 1 + rng.Index(24);
    std::vector<std::vector<std::string>> src_cols, tgt_cols;
    for (int c = 0; c < 3; ++c) {
      src_cols.push_back(
          MakeColumn(corpus, pool, src_rows, /*distinct=*/false, rng));
      tgt_cols.push_back(
          MakeColumn(corpus, pool, tgt_rows, /*distinct=*/false, rng));
    }
    const Table src = StringTable("src", src_cols);
    const Table tgt = StringTable("tgt", tgt_cols);
    for (double t : SweepThresholds()) {
      for (LevenshteinKernel kernel :
           {LevenshteinKernel::kBanded, LevenshteinKernel::kNaive}) {
        JaccardLevenshteinOptions opt;
        opt.threshold = t;
        opt.kernel = kernel;
        opt.max_distinct_values = 0;
        JaccardLevenshteinMatcher matcher(opt);
        MatchContext context;
        Result<PreparedTablePtr> ps = matcher.Prepare(src, nullptr, context);
        Result<PreparedTablePtr> pt = matcher.Prepare(tgt, nullptr, context);
        ASSERT_TRUE(ps.ok() && pt.ok());
        Result<MatchResult> scored = matcher.Score(**ps, **pt, nullptr, context);
        ASSERT_TRUE(scored.ok());
        ASSERT_EQ(scored->size(), src_cols.size() * tgt_cols.size());
        for (size_t k = 0; k < scored->size(); ++k) {
          const auto& m = (*scored)[k];
          const size_t i = std::stoul(m.source.column.substr(1));
          const size_t j = std::stoul(m.target.column.substr(1));
          const double want = ReferenceFuzzyJaccard(
              src.column(i).DistinctStrings(), tgt.column(j).DistinctStrings(),
              t, kernel);
          EXPECT_EQ(Bits(m.score), Bits(want))
              << corpus.name << " threshold " << t << " c" << i << "/c" << j;
        }
      }
    }
  }
}

TEST(FuzzyJaccardKernelTest, FoldedBagBoundsByteBagBoundsLevenshtein) {
  Rng rng(77);
  const std::string alphabet =
      std::string("aAbz09_- ") + '\0' + "\x80\xc3\xff";
  auto check = [](const std::string& x, const std::string& y) {
    const size_t folded = FoldedBagDistance(FoldBag(x), FoldBag(y));
    const size_t bytes = ByteBagDistance(x, y);
    const size_t lev = LevenshteinDistance(x, y);
    EXPECT_LE(folded, bytes) << x.size() << "/" << y.size();
    EXPECT_LE(bytes, lev) << x.size() << "/" << y.size();
  };
  for (int trial = 0; trial < 3000; ++trial) {
    check(RandomFrom(rng, alphabet, rng.Index(40)),
          RandomFrom(rng, alphabet, rng.Index(40)));
  }
  // 300 copies of one byte saturate its bucket at 255: the bound shrinks
  // (255 - 10 = 245 against the true 290) but stays a lower bound.
  const std::string run(300, 'x');
  check(run, std::string(10, 'x'));
  check(run, std::string(280, 'x'));
  check(run, run);
  check(run, "");
  EXPECT_EQ(FoldedBagDistance(FoldBag(run), FoldBag(std::string(10, 'x'))),
            245u);
}

// Equal hashes are only a hint: two distinct strings forced onto one
// hash are not an exact match, and equal strings among the colliding
// values still are, with the reference's multiset semantics.
TEST(FuzzyJaccardKernelTest, HashCollisionsAreConfirmedByStringCompare) {
  auto collide = [](std::vector<std::string> values) {
    FuzzyJaccardColumn column = FuzzyJaccardColumn::Build(std::move(values));
    for (uint32_t i = 0; i < column.by_hash.size(); ++i) {
      column.by_hash[i] = {0, i};
    }
    return column;
  };
  const std::vector<std::string> a = {"apple", "pear", "x", "x", "kiwi"};
  const std::vector<std::string> b = {"plum", "x", "fig", "kiwi", "x", "x"};
  for (double t : {0.0, 0.5}) {
    for (LevenshteinKernel kernel :
         {LevenshteinKernel::kBanded, LevenshteinKernel::kNaive}) {
      EXPECT_EQ(Bits(FuzzyJaccard(collide({"apple", "pear"}),
                                  collide({"plum", "kiwi"}), t, kernel)),
                Bits(ReferenceFuzzyJaccard({"apple", "pear"},
                                           {"plum", "kiwi"}, t, kernel)));
      EXPECT_EQ(Bits(FuzzyJaccard(collide(a), collide(b), t, kernel)),
                Bits(ReferenceFuzzyJaccard(a, b, t, kernel)))
          << "threshold " << t;
    }
  }
  EXPECT_EQ(FuzzyJaccard(collide({"apple", "pear"}), collide({"plum", "kiwi"}),
                         0.0, LevenshteinKernel::kBanded),
            0.0);
}

}  // namespace
}  // namespace valentine
