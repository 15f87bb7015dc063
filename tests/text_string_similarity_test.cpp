#include "text/string_similarity.h"

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>
#include <unordered_map>

#include "core/rng.h"

namespace valentine {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(LevenshteinDistance("sunday", "saturday"),
            LevenshteinDistance("saturday", "sunday"));
}

TEST(LevenshteinSimilarityTest, Bounds) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  double s = LevenshteinSimilarity("abcd", "abce");
  EXPECT_DOUBLE_EQ(s, 0.75);
}

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.7667, 1e-3);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("prefixed", "prefixes");
  double jw = JaroWinklerSimilarity("prefixed", "prefixes");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
}

TEST(JaroWinklerTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("same", "same"), 1.0);
}

TEST(CharNGramsTest, PaddedTrigrams) {
  auto grams = CharNGrams("ab", 3);
  // "##ab##" -> {"##a", "#ab", "ab#", "b##"}
  ASSERT_EQ(grams.size(), 4u);
  EXPECT_EQ(grams[0], "##a");
  EXPECT_EQ(grams[3], "b##");
}

TEST(CharNGramsTest, Unigrams) {
  auto grams = CharNGrams("abc", 1);
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[1], "b");
}

TEST(CharNGramsTest, ZeroNYieldsNoGrams) {
  // Regression: n == 0 used to compute std::string(n - 1, '#') with an
  // unsigned underflow. It must simply produce no grams.
  EXPECT_TRUE(CharNGrams("abc", 0).empty());
  EXPECT_TRUE(CharNGrams("", 0).empty());
}

TEST(CharNGramsTest, EmptyString) {
  // "" padded to "####" for n == 3 -> {"###", "###"}.
  auto grams = CharNGrams("", 3);
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "###");
  EXPECT_EQ(grams[1], "###");
  // Unigrams of the empty string: nothing to emit.
  EXPECT_TRUE(CharNGrams("", 1).empty());
}

TEST(CharNGramsTest, AllPadCharacters) {
  // Input consisting of the pad character itself still round-trips:
  // "##" padded to "######" -> 4 trigrams, all "###".
  auto grams = CharNGrams("##", 3);
  ASSERT_EQ(grams.size(), 4u);
  for (const auto& g : grams) EXPECT_EQ(g, "###");
}

TEST(TrigramTest, Bounds) {
  EXPECT_DOUBLE_EQ(TrigramSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TrigramSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(TrigramSimilarity("abc", "xyz"), 0.0);
  double s = TrigramSimilarity("night", "nacht");
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(TrigramCodesTest, PackedPaddedTrigrams) {
  // "ab" -> "##a", "#ab", "ab#", "b##", as big-endian 24-bit codes.
  auto code = [](char x, char y, char z) {
    return (static_cast<uint32_t>(static_cast<unsigned char>(x)) << 16) |
           (static_cast<uint32_t>(static_cast<unsigned char>(y)) << 8) |
           static_cast<uint32_t>(static_cast<unsigned char>(z));
  };
  std::vector<uint32_t> want = {code('#', '#', 'a'), code('#', 'a', 'b'),
                                code('a', 'b', '#'), code('b', '#', '#')};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(TrigramCodes("ab"), want);
  // The empty string still pads to two "###" grams, as CharNGrams does.
  EXPECT_EQ(TrigramCodes(""),
            std::vector<uint32_t>(2, code('#', '#', '#')));
  EXPECT_EQ(TrigramCodes("abc").size(), CharNGrams("abc", 3).size());
}

/// The trigram similarity as it was computed before the packed kernel:
/// string grams counted in a hash map. Kept here as the reference the
/// kernel must reproduce bit for bit.
double ReferenceTrigramSimilarity(const std::string& a, const std::string& b) {
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

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Seeded sweep over strings built from a small alphabet that includes
// the pad character, high bytes and NUL, so grams collide with padding
// and sign-extension or C-string bugs would show.
TEST(TrigramCodesTest, RandomizedMatchesHashMapReference) {
  const std::string alphabet = std::string("ab#") + '\0' + "\x80\xff\xc3z";
  Rng rng(20260417);
  auto random_string = [&] {
    std::string s(rng.Index(41), ' ');
    for (char& c : s) c = alphabet[rng.Index(alphabet.size())];
    return s;
  };
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string a = random_string();
    // Every fourth pair is a light mutation of `a`, so high overlaps and
    // repeated grams are covered too.
    std::string b = random_string();
    if (trial % 4 == 0) {
      b = a;
      for (size_t k = 0; k < 3 && !b.empty(); ++k) {
        b[rng.Index(b.size())] = alphabet[rng.Index(alphabet.size())];
      }
    }
    const double want = ReferenceTrigramSimilarity(a, b);
    EXPECT_EQ(Bits(TrigramSimilarity(a, b)), Bits(want))
        << "trial " << trial << " sizes " << a.size() << "/" << b.size();
    EXPECT_EQ(Bits(TrigramCodeSimilarity(TrigramCodes(a), TrigramCodes(b))),
              Bits(want))
        << "trial " << trial;
  }
}

TEST(JaccardTest, SetOverlap) {
  std::unordered_set<std::string> a = {"x", "y", "z"};
  std::unordered_set<std::string> b = {"y", "z", "w"};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, {}), 0.0);
}

TEST(ContainmentTest, Asymmetric) {
  std::unordered_set<std::string> a = {"x", "y"};
  std::unordered_set<std::string> b = {"x", "y", "z", "w"};
  EXPECT_DOUBLE_EQ(Containment(a, b), 1.0);
  EXPECT_DOUBLE_EQ(Containment(b, a), 0.5);
  EXPECT_DOUBLE_EQ(Containment({}, b), 0.0);
}

TEST(FuzzyJaccardTest, ExactMatchesOnly) {
  std::vector<std::string> a = {"apple", "pear", "plum"};
  std::vector<std::string> b = {"apple", "pear", "kiwi"};
  // threshold 0: only exact matches, jaccard = 2/4.
  EXPECT_DOUBLE_EQ(FuzzyJaccard(a, b, 0.0), 0.5);
}

TEST(FuzzyJaccardTest, FuzzyMatchesCount) {
  std::vector<std::string> a = {"apple"};
  std::vector<std::string> b = {"aple"};  // distance 1, max len 5 -> 0.2
  EXPECT_DOUBLE_EQ(FuzzyJaccard(a, b, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(FuzzyJaccard(a, b, 0.25), 1.0);
}

TEST(FuzzyJaccardTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(FuzzyJaccard({}, {}, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(FuzzyJaccard({"a"}, {}, 0.5), 0.0);
}

TEST(FuzzyJaccardTest, DuplicatesHandledAsMultiset) {
  std::vector<std::string> a = {"x", "x"};
  std::vector<std::string> b = {"x"};
  // matched = 1, union = 2 + 1 - 1 = 2.
  EXPECT_DOUBLE_EQ(FuzzyJaccard(a, b, 0.0), 0.5);
}

TEST(FuzzyJaccardTest, LengthPrefilterDoesNotChangeSemantics) {
  // "ab" vs "abcdef": length diff 4 / max 6 = 0.67 > 0.3 -> prunable,
  // and indeed real distance 4/6 = 0.67 > 0.3.
  EXPECT_DOUBLE_EQ(FuzzyJaccard({"ab"}, {"abcdef"}, 0.3), 0.0);
  // Within threshold it still matches.
  EXPECT_DOUBLE_EQ(FuzzyJaccard({"abcde"}, {"abcdef"}, 0.3), 1.0);
}

TEST(FuzzyJaccardTest, PermutedDuplicateInputsScoreIdentically) {
  // Regression for the order-dependence bug: the leftover list for `b`
  // was rebuilt by iterating an unordered_map, so inputs containing
  // duplicates could score differently depending on hash order. The
  // score must be a pure function of the multisets, i.e. identical
  // under any permutation of either input.
  //
  // Crafted so greedy pairing is contention-heavy: "abcd" fuzzy-matches
  // both "abcx" and "abcy", duplicates included.
  std::vector<std::string> a = {"abcd", "abcd", "qqqq", "abcx"};
  std::vector<std::string> b = {"abcx", "abcy", "abcx", "zzzz"};
  const double threshold = 0.25;  // distance 1 over length 4 matches

  std::vector<std::string> pa = a;
  std::sort(pa.begin(), pa.end());
  const double reference = FuzzyJaccard(a, b, threshold);
  do {
    std::vector<std::string> pb = b;
    std::sort(pb.begin(), pb.end());
    do {
      EXPECT_DOUBLE_EQ(FuzzyJaccard(pa, pb, threshold), reference)
          << "a permuted as {" << pa[0] << "," << pa[1] << "," << pa[2]
          << "," << pa[3] << "}, b permuted as {" << pb[0] << "," << pb[1]
          << "," << pb[2] << "," << pb[3] << "}";
    } while (std::next_permutation(pb.begin(), pb.end()));
  } while (std::next_permutation(pa.begin(), pa.end()));
}

TEST(FuzzyJaccardTest, KernelsAgree) {
  // The banded kernel must reproduce the naive kernel's score exactly,
  // including at thresholds where float rounding of max_distance *
  // max_len is adversarial (0.3 * 10 < 3.0 in binary floating point).
  const std::vector<std::vector<std::string>> corpora = {
      {},
      {"apple", "pear", "plum", "aple", "peer"},
      {"customer_id", "customerid", "cust_id", "custid"},
      {"aaaaaaaaaa", "aaaaaaabbb", "bbbbbbbbbb"},
      {"x", "xy", "xyz", "xyzw", ""},
      {"same", "same", "same"},
  };
  const double thresholds[] = {0.0, 0.2, 0.25, 0.3, 0.5, 0.8, 1.0};
  for (const auto& a : corpora) {
    for (const auto& b : corpora) {
      for (double t : thresholds) {
        EXPECT_DOUBLE_EQ(
            FuzzyJaccard(a, b, t, LevenshteinKernel::kBanded),
            FuzzyJaccard(a, b, t, LevenshteinKernel::kNaive))
            << "threshold " << t;
      }
    }
  }
}

TEST(LevenshteinWithinTest, ExactWhenWithinBound) {
  // Against the reference full-matrix distance: for every pair in the
  // corpus and every cutoff, LevenshteinWithin returns the exact
  // distance when d <= max_dist and something larger otherwise.
  const std::vector<std::string> corpus = {
      "",      "a",       "ab",         "ba",        "kitten",
      "sitting", "saturday", "sunday",   "aaaa",      "aa",
      "column_name", "columnname", "ADDRESS", "address", "abcdefgh"};
  for (const auto& a : corpus) {
    for (const auto& b : corpus) {
      const size_t d = LevenshteinDistance(a, b);
      const size_t limit = std::max(a.size(), b.size()) + 2;
      for (size_t k = 0; k <= limit; ++k) {
        const size_t got = LevenshteinWithin(a, b, k);
        if (d <= k) {
          EXPECT_EQ(got, d) << '"' << a << "\" vs \"" << b
                            << "\" max_dist " << k;
        } else {
          EXPECT_GT(got, k) << '"' << a << "\" vs \"" << b
                            << "\" max_dist " << k;
        }
      }
    }
  }
}

TEST(LevenshteinWithinTest, ZeroBudgetIsEqualityTest) {
  EXPECT_EQ(LevenshteinWithin("same", "same", 0), 0u);
  EXPECT_GT(LevenshteinWithin("same", "sane", 0), 0u);
  EXPECT_EQ(LevenshteinWithin("", "", 0), 0u);
}

// Myers/Hyyro against the full DP: patterns of 0-64 bytes, texts of
// 0-149 bytes, over small alphabets (many matches, long carry chains)
// and bytes >= 0xC0 (sign-extension bugs would index the wrong mask).
TEST(LevenshteinBitParallelTest, MatchesFullDp) {
  const std::vector<std::string> alphabets = {
      "ab", "abc", "acgt", "0123456789",
      std::string("a\xc0\xc3\xff") + '\0'};
  Rng rng(1999);
  auto random_string = [&](const std::string& alphabet, size_t len) {
    std::string s(len, ' ');
    for (char& c : s) c = alphabet[rng.Index(alphabet.size())];
    return s;
  };
  for (int trial = 0; trial < 6000; ++trial) {
    const std::string& alphabet = alphabets[rng.Index(alphabets.size())];
    const std::string pattern = random_string(alphabet, rng.Index(65));
    std::string text = random_string(alphabet, rng.Index(150));
    if (trial % 3 == 0) {
      // A light mutation of the pattern: small distances, long matches.
      text = pattern;
      for (size_t k = rng.Index(4); k > 0 && !text.empty(); --k) {
        text[rng.Index(text.size())] = alphabet[rng.Index(alphabet.size())];
      }
    }
    ASSERT_EQ(LevenshteinBitParallel(pattern, text),
              LevenshteinDistance(pattern, text))
        << "trial " << trial << " sizes " << pattern.size() << "/"
        << text.size();
  }
  EXPECT_EQ(LevenshteinBitParallel("", "abc"), 3u);
  EXPECT_EQ(LevenshteinBitParallel("abc", ""), 3u);
  EXPECT_EQ(LevenshteinBitParallel("kitten", "sitting"), 3u);
  const std::string full(64, 'q');
  EXPECT_EQ(LevenshteinBitParallel(full, full), 0u);
  EXPECT_EQ(LevenshteinBitParallel(full, std::string(64, 'r')), 64u);
  // Past 64 bytes the pattern no longer fits a word: full DP fallback.
  const std::string long_pattern(70, 'q');
  EXPECT_EQ(LevenshteinBitParallel(long_pattern, "qq"), 68u);
}

TEST(LongestCommonSubstringTest, Basic) {
  EXPECT_EQ(LongestCommonSubstring("abcdef", "zcdefz"), 4u);
  EXPECT_EQ(LongestCommonSubstring("abc", "xyz"), 0u);
  EXPECT_EQ(LongestCommonSubstring("", "abc"), 0u);
  EXPECT_EQ(LongestCommonSubstring("same", "same"), 4u);
}

TEST(BestMatchAverageTest, SymmetricAndBounded) {
  std::vector<std::string> a = {"customer", "name"};
  std::vector<std::string> b = {"name", "customer"};
  double s = BestMatchAverage(a, b, &JaroWinklerSimilarity);
  EXPECT_DOUBLE_EQ(s, 1.0);
  EXPECT_DOUBLE_EQ(BestMatchAverage({}, {}, &JaroWinklerSimilarity), 1.0);
  EXPECT_DOUBLE_EQ(BestMatchAverage(a, {}, &JaroWinklerSimilarity), 0.0);
}

// Property sweep: similarity functions stay within [0, 1] and are
// symmetric over a corpus of tricky strings.
class SimilarityPropertyTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(SimilarityPropertyTest, BoundedAndSymmetric) {
  auto [sa, sb] = GetParam();
  std::string a(sa), b(sb);
  for (auto* fn : {&LevenshteinSimilarity, &JaroSimilarity,
                   &JaroWinklerSimilarity, &TrigramSimilarity}) {
    double ab = fn(a, b);
    double ba = fn(b, a);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_NEAR(ab, ba, 1e-12) << a << " vs " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TrickyStrings, SimilarityPropertyTest,
    ::testing::Values(std::make_pair("", ""), std::make_pair("a", ""),
                      std::make_pair("a", "a"), std::make_pair("ab", "ba"),
                      std::make_pair("aaaa", "aa"),
                      std::make_pair("column_name", "columnname"),
                      std::make_pair("x", "yyyyyyyyyyyyyyyy"),
                      std::make_pair("ADDRESS", "address"),
                      std::make_pair("123", "321")));

}  // namespace
}  // namespace valentine
