#ifndef VALENTINE_TEXT_STRING_SIMILARITY_H_
#define VALENTINE_TEXT_STRING_SIMILARITY_H_

/// \file string_similarity.h
/// String distance/similarity measures used across the matchers:
/// Levenshtein (Similarity Flooding init, Jaccard-Levenshtein baseline),
/// trigram similarity (COMA name matcher), Jaro-Winkler (Cupid linguistic
/// matching), and set-overlap measures.

#include <array>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace valentine {

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
size_t LevenshteinDistance(const std::string& a, const std::string& b);

/// Banded (Ukkonen) Levenshtein with early exit: returns the exact edit
/// distance when it is <= max_dist, and some value > max_dist otherwise
/// (callers must treat any return above max_dist as "too far", not as
/// the true distance). Runs in O(max_dist * min_len) against the full
/// DP's O(len_a * len_b) and allocates nothing on the steady state.
size_t LevenshteinWithin(const std::string& a, const std::string& b,
                         size_t max_dist);

/// Exact Levenshtein distance by Myers' bit-parallel algorithm in
/// Hyyrö's formulation (Myers, J. ACM 1999; Hyyrö 2001): one pass over
/// `text` with a handful of word operations per byte, for a `pattern` of
/// at most 64 bytes, one bit per byte of a machine word. Longer patterns
/// fall back to LevenshteinDistance. An empty pattern's distance is
/// text.size().
size_t LevenshteinBitParallel(const std::string& pattern,
                              const std::string& text);

/// Character-bag signature of one value: its byte counts folded into 32
/// buckets, each count saturating at 255. The ten ASCII digits keep a
/// bucket each; every other byte shares one of the remaining 22.
using FoldedBag = std::array<uint8_t, 32>;

/// The FoldedBag of `s`.
FoldedBag FoldBag(const std::string& s);

/// Lower bound on the Levenshtein distance of the two values the bags
/// came from: the larger of the two sides' surpluses summed over
/// buckets. Each edit removes at most one unmatched byte per side, so
/// the byte-wise bag distance bounds the edit distance from below;
/// folding bytes together and capping counts can only shrink a bucket's
/// surplus, so this never exceeds the byte-wise bag distance.
size_t FoldedBagDistance(const FoldedBag& a, const FoldedBag& b);

/// 1 - distance / max(len); 1.0 for two empty strings.
double LevenshteinSimilarity(const std::string& a, const std::string& b);

/// Jaro similarity in [0, 1].
double JaroSimilarity(const std::string& a, const std::string& b);

/// Jaro-Winkler with standard prefix scaling (p = 0.1, max prefix 4).
double JaroWinklerSimilarity(const std::string& a, const std::string& b);

/// Character n-grams of a string (padded with '#' at both ends as COMA
/// does, so short names still produce grams). n == 0 yields no grams.
std::vector<std::string> CharNGrams(const std::string& s, size_t n);

/// The padded character trigrams of `s` (the multiset CharNGrams(s, 3)
/// emits) as packed 24-bit codes, first byte highest, sorted so that two
/// multisets intersect by a linear merge. Name matchers build these once
/// per name and compare them many times.
std::vector<uint32_t> TrigramCodes(const std::string& s);

/// Dice coefficient 2 * common / (|a| + |b|) over two TrigramCodes
/// multisets, where `common` is the size of their multiset intersection.
double TrigramCodeSimilarity(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b);

/// Dice coefficient over character trigram multiset intersection:
/// TrigramCodeSimilarity over both strings' TrigramCodes.
double TrigramSimilarity(const std::string& a, const std::string& b);

/// Jaccard similarity of two string sets: |A ∩ B| / |A ∪ B|; 1.0 when
/// both are empty.
double JaccardSimilarity(const std::unordered_set<std::string>& a,
                         const std::unordered_set<std::string>& b);

/// Containment of a in b: |A ∩ B| / |A|; 0.0 when a is empty.
double Containment(const std::unordered_set<std::string>& a,
                   const std::unordered_set<std::string>& b);

/// Edit-distance kernel used by FuzzyJaccard's leftover pairing stage.
/// Both kernels produce identical scores: every gate in front of the
/// banded kernel's distance is a lower bound checked against a
/// rounding-safe integer cutoff, and the accept test is the same
/// floating-point comparison of an exact distance. kNaive exists as the
/// reference implementation and the bench A/B baseline.
enum class LevenshteinKernel {
  /// Folded bag bound, then LevenshteinBitParallel when the `a`-side
  /// value is 1-64 bytes and LevenshteinWithin (Ukkonen band + early
  /// exit) otherwise (default).
  kBanded,
  kNaive,  ///< no bag bound; full-matrix LevenshteinDistance
};

/// Per-value inputs of the fuzzy-Jaccard kernel for one list of values,
/// built once per column and compared against many columns.
struct FuzzyJaccardColumn {
  struct HashedIndex {
    uint64_t hash;
    uint32_t index;
  };
  std::vector<std::string> values;  ///< in input order
  std::vector<uint32_t> lengths;    ///< values[i].size()
  /// One (hash of values[i], i) per value, sorted by hash, then index.
  /// The kernel confirms every equal hash with a string compare, so
  /// scores never depend on the hash function.
  std::vector<HashedIndex> by_hash;
  std::vector<FoldedBag> bags;  ///< FoldBag(values[i])

  static FuzzyJaccardColumn Build(std::vector<std::string> values);
};

/// Fuzzy Jaccard: values match when normalized Levenshtein distance
/// (distance / max len) is at most `max_distance`. This is the core of
/// the paper's Jaccard-Levenshtein baseline. Exact matches come from a
/// merge of the two columns' sorted hashes: for a string held k =
/// min(count in a, count in b) times by both, its first k occurrences
/// in `a` pair with its last k in `b`. Only leftovers pay the quadratic
/// comparison: each `a` leftover, in input order, takes the first
/// unused `b` leftover, in input order, within the threshold. The score
/// is therefore a pure function of the input sequences.
double FuzzyJaccard(const FuzzyJaccardColumn& a, const FuzzyJaccardColumn& b,
                    double max_distance, LevenshteinKernel kernel);

/// FuzzyJaccard over two value lists with the default kernel.
double FuzzyJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b, double max_distance);

/// FuzzyJaccard over two value lists with an explicit edit-distance
/// kernel: builds both FuzzyJaccardColumns and runs the column kernel.
double FuzzyJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b, double max_distance,
                    LevenshteinKernel kernel);

/// Length of the longest common substring.
size_t LongestCommonSubstring(const std::string& a, const std::string& b);

/// American Soundex code of a word ("Robert" -> "R163"); empty input
/// yields "0000". Classic phonetic matcher from COMA's name library.
std::string Soundex(const std::string& word);

/// Similarity of two Soundex codes: 1.0 when they agree, else 0.0 (with
/// a 0.5 credit for a shared leading letter + first digit).
double SoundexCodeSimilarity(const std::string& a, const std::string& b);

/// SoundexCodeSimilarity of the two words' Soundex codes.
double SoundexSimilarity(const std::string& a, const std::string& b);

/// Monge-Elkan-style best-match average of `sim` over token lists, made
/// symmetric by averaging both directions. Used by Cupid's linguistic
/// matcher over name tokens.
double BestMatchAverage(const std::vector<std::string>& a,
                        const std::vector<std::string>& b,
                        double (*sim)(const std::string&,
                                      const std::string&));

}  // namespace valentine

#endif  // VALENTINE_TEXT_STRING_SIMILARITY_H_
