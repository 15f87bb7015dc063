#include "text/string_similarity.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "obs/opcount.h"

namespace valentine {

namespace {

/// True when the bag (character-multiset) distance between a and b
/// provably exceeds `bound`. Bag distance — max(#chars of a unmatched in
/// b, #chars of b unmatched in a), counting multiplicity — is a lower
/// bound on Levenshtein distance: a deletion removes one unmatched char
/// of a, an insertion one of b, a substitution one of each, so each edit
/// reduces either count by at most 1. Costs O(|a|+|b|) with no DP and no
/// allocation, which makes it a profitable gate in front of the banded
/// kernel where most candidate pairs are far apart.
bool BagDistanceExceeds(const std::string& a, const std::string& b,
                        size_t bound) {
  // a/b here are std::strings; the lint keys on same-named set parameters
  // elsewhere in this file. Counting is commutative over order anyway.
  thread_local std::array<int, 256> counts{};  // invariant: all zero between calls
  for (unsigned char c : a) ++counts[c];  // lint:allow(unordered-iteration)
  for (unsigned char c : b) --counts[c];  // lint:allow(unordered-iteration)
  size_t surplus_a = 0;  // chars of a with no partner in b
  size_t surplus_b = 0;  // chars of b with no partner in a
  for (unsigned char c : a) {  // lint:allow(unordered-iteration)
    int v = counts[c];
    if (v > 0) surplus_a += static_cast<size_t>(v);
    counts[c] = 0;
  }
  for (unsigned char c : b) {  // lint:allow(unordered-iteration)
    int v = counts[c];
    if (v < 0) surplus_b += static_cast<size_t>(-v);
    counts[c] = 0;
  }
  return std::max(surplus_a, surplus_b) > bound;
}

}  // namespace

size_t LevenshteinDistance(const std::string& a, const std::string& b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  const size_t n = b.size();
  opcount::Add(opcount::Op::kLevenshteinCells, a.size() * n);
  std::vector<size_t> prev(n + 1), cur(n + 1);
  for (size_t j = 0; j <= n; ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= n; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

size_t LevenshteinWithin(const std::string& a, const std::string& b,
                         size_t max_dist) {
  const size_t too_far = max_dist + 1;
  // Trim the common prefix and suffix: edits never pay for them, and
  // matcher value lists share formats (ids, codes, dates), so this
  // often shrinks the DP to a fraction of the strings.
  size_t lo = 0;
  size_t ea = a.size();
  size_t eb = b.size();
  while (lo < ea && lo < eb && a[lo] == b[lo]) ++lo;
  while (ea > lo && eb > lo && a[ea - 1] == b[eb - 1]) {
    --ea;
    --eb;
  }
  const size_t la = ea - lo;
  const size_t lb = eb - lo;
  // The distance is at least the length difference.
  if (la > lb + max_dist || lb > la + max_dist) return too_far;
  if (la == 0) return lb;
  if (lb == 0) return la;
  const char* sa = a.data() + lo;
  const char* sb = b.data() + lo;

  // Two-row DP restricted to the diagonal band |i - j| <= max_dist.
  // Cells outside the band hold `too_far`, which acts as infinity: band
  // values never exceed too_far + 1, so additions cannot overflow.
  thread_local std::vector<size_t> prev_row;
  thread_local std::vector<size_t> cur_row;
  prev_row.resize(lb + 1);
  cur_row.resize(lb + 1);
  const size_t first_hi = std::min(lb, max_dist);
  for (size_t j = 0; j <= first_hi; ++j) prev_row[j] = j;
  if (first_hi < lb) prev_row[first_hi + 1] = too_far;

  // Band cells visited, flushed to the op counter at every exit. A
  // plain local keeps the inner loop free of thread-local traffic.
  uint64_t cells = 0;
  for (size_t i = 1; i <= la; ++i) {
    const size_t band_lo = (i > max_dist) ? i - max_dist : 1;
    const size_t band_hi = std::min(lb, i + max_dist);
    cells += band_hi - band_lo + 1;
    cur_row[band_lo - 1] = (band_lo == 1) ? i : too_far;
    size_t row_min = cur_row[band_lo - 1];
    const char ca = sa[i - 1];
    for (size_t j = band_lo; j <= band_hi; ++j) {
      size_t cost = (ca == sb[j - 1]) ? 0 : 1;
      size_t d = std::min({prev_row[j] + 1, cur_row[j - 1] + 1,
                           prev_row[j - 1] + cost});
      cur_row[j] = d;
      row_min = std::min(row_min, d);
    }
    // The next row reads one cell past this row's band; keep it infinite
    // so values from earlier calls or rows never leak in.
    if (band_hi < lb) cur_row[band_hi + 1] = too_far;
    // Early exit: edit distance is non-decreasing along the DP rows, so
    // once the whole band exceeds the budget the answer must too.
    if (row_min > max_dist) {
      opcount::Add(opcount::Op::kLevenshteinCells, cells);
      return too_far;
    }
    std::swap(prev_row, cur_row);
  }
  opcount::Add(opcount::Op::kLevenshteinCells, cells);
  const size_t d = prev_row[lb];
  return d <= max_dist ? d : too_far;
}

double LevenshteinSimilarity(const std::string& a, const std::string& b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(max_len);
}

double JaroSimilarity(const std::string& a, const std::string& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t match_window =
      std::max<size_t>(1, std::max(la, lb) / 2) - 1;
  // One reused per-thread flag buffer: the name matchers call this per
  // token pair, where two fresh allocations cost more than the scan.
  thread_local std::vector<unsigned char> matched;
  matched.assign(la + lb, 0);
  unsigned char* a_matched = matched.data();
  unsigned char* b_matched = a_matched + la;
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = (i > match_window) ? i - match_window : 0;
    size_t hi = std::min(lb, i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = b_matched[j] = 1;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t k = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(const std::string& a, const std::string& b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

std::vector<std::string> CharNGrams(const std::string& s, size_t n) {
  // n == 0 has no sensible gram decomposition — and n - 1 below would
  // underflow to SIZE_MAX and attempt a giant pad allocation.
  if (n == 0) return {};
  std::string padded(n - 1, '#');
  padded += s;
  padded.append(n - 1, '#');
  std::vector<std::string> grams;
  if (padded.size() < n) return grams;
  grams.reserve(padded.size() - n + 1);
  for (size_t i = 0; i + n <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, n));
  }
  opcount::Add(opcount::Op::kNGramEmissions, grams.size());
  return grams;
}

std::vector<uint32_t> TrigramCodes(const std::string& s) {
  // Slide a 3-byte window over "##" + s + "##" without building the
  // padded string: each step shifts one byte into the low end.
  constexpr uint32_t kPad = static_cast<unsigned char>('#');
  std::vector<uint32_t> codes;
  codes.reserve(s.size() + 2);
  uint32_t window = (kPad << 8) | kPad;
  auto push = [&](uint32_t byte) {
    window = ((window << 8) | byte) & 0xFFFFFFu;
    codes.push_back(window);
  };
  for (unsigned char c : s) push(c);
  push(kPad);
  push(kPad);
  opcount::Add(opcount::Op::kNGramEmissions, codes.size());
  std::sort(codes.begin(), codes.end());
  return codes;
}

double TrigramCodeSimilarity(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t common = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return 2.0 * common / static_cast<double>(a.size() + b.size());
}

double TrigramSimilarity(const std::string& a, const std::string& b) {
  return TrigramCodeSimilarity(TrigramCodes(a), TrigramCodes(b));
}

double JaccardSimilarity(const std::unordered_set<std::string>& a,
                         const std::unordered_set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const auto& small = (a.size() <= b.size()) ? a : b;
  const auto& large = (a.size() <= b.size()) ? b : a;
  size_t inter = 0;
  for (const auto& s : small) {
    if (large.count(s)) ++inter;
  }
  return static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size() - inter);
}

double Containment(const std::unordered_set<std::string>& a,
                   const std::unordered_set<std::string>& b) {
  if (a.empty()) return 0.0;
  size_t inter = 0;
  // Membership counting is commutative over iteration order.
  for (const auto& s : a) {  // lint:allow(unordered-iteration)
    if (b.count(s)) ++inter;
  }
  return static_cast<double>(inter) / static_cast<double>(a.size());
}

double FuzzyJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b, double max_distance) {
  return FuzzyJaccard(a, b, max_distance, LevenshteinKernel::kBanded);
}

double FuzzyJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b, double max_distance,
                    LevenshteinKernel kernel) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Resolve exact matches cheaply first; pair off leftovers fuzzily.
  // `a` and `b` are the input vectors here (the set-overload parameters
  // of the same names are what the lint heuristic keys on); iteration
  // follows input order by construction.
  std::unordered_map<std::string, size_t> b_counts;
  for (const auto& s : b) ++b_counts[s];  // lint:allow(unordered-iteration)
  std::vector<std::string> a_left;
  size_t matched = 0;
  for (const auto& s : a) {  // lint:allow(unordered-iteration)
    auto it = b_counts.find(s);
    if (it != b_counts.end() && it->second > 0) {
      --it->second;
      ++matched;
    } else {
      a_left.push_back(s);
    }
  }
  // Replay b against the leftover multiplicities so b_left comes out in
  // first-seen input order. Greedy pairing below is order-sensitive:
  // emitting leftovers by iterating b_counts would tie scores (and the
  // Recall@GT built on them) to hash iteration order, which varies
  // across standard libraries.
  std::vector<std::string> b_left;
  for (const auto& s : b) {  // lint:allow(unordered-iteration)
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
        // Length prefilter: the edit distance is at least the length
        // difference, so such pairs can never clear the threshold.
        size_t min_len = std::min(s.size(), b_left[j].size());
        if (static_cast<double>(max_len - min_len) >
            max_distance * static_cast<double>(max_len)) {
          continue;
        }
        size_t dist;
        if (kernel == LevenshteinKernel::kBanded) {
          // floor(max_distance * max_len) + 1 over-covers every distance
          // the floating-point accept test below could admit (float
          // rounding can only misplace the product by far less than 1),
          // so bounding the DP there never changes a score — it only
          // lets hopeless pairs exit early.
          size_t bound = static_cast<size_t>(
                             max_distance * static_cast<double>(max_len)) +
                         1;
          // Bag distance never exceeds the true distance, so a pair it
          // rejects could never have passed the accept test below.
          if (BagDistanceExceeds(s, b_left[j], bound)) {
            opcount::Add(opcount::Op::kBagPrefilterHits, 1);
            continue;
          }
          opcount::Add(opcount::Op::kBagPrefilterMisses, 1);
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

size_t LongestCommonSubstring(const std::string& a, const std::string& b) {
  if (a.empty() || b.empty()) return 0;
  // Reused per-thread rows, as in LevenshteinWithin.
  thread_local std::vector<size_t> prev;
  thread_local std::vector<size_t> cur;
  prev.assign(b.size() + 1, 0);
  cur.assign(b.size() + 1, 0);
  size_t best = 0;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      if (a[i - 1] == b[j - 1]) {
        cur[j] = prev[j - 1] + 1;
        best = std::max(best, cur[j]);
      } else {
        cur[j] = 0;
      }
    }
    std::swap(prev, cur);
  }
  return best;
}

std::string Soundex(const std::string& word) {
  auto code_of = [](char c) -> char {
    switch (c) {
      case 'b': case 'f': case 'p': case 'v': return '1';
      case 'c': case 'g': case 'j': case 'k': case 'q': case 's':
      case 'x': case 'z': return '2';
      case 'd': case 't': return '3';
      case 'l': return '4';
      case 'm': case 'n': return '5';
      case 'r': return '6';
      default: return '0';  // vowels + h/w/y drop
    }
  };
  std::string letters;
  for (char raw : word) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalpha(c)) {
      letters.push_back(static_cast<char>(std::tolower(c)));
    }
  }
  if (letters.empty()) return "0000";
  std::string out(1, static_cast<char>(std::toupper(
                         static_cast<unsigned char>(letters[0]))));
  char prev_code = code_of(letters[0]);
  for (size_t i = 1; i < letters.size() && out.size() < 4; ++i) {
    char c = letters[i];
    char code = code_of(c);
    // 'h' and 'w' are transparent: they do not reset the previous code.
    if (c == 'h' || c == 'w') continue;
    if (code != '0' && code != prev_code) out.push_back(code);
    prev_code = code;
  }
  while (out.size() < 4) out.push_back('0');
  return out;
}

double SoundexCodeSimilarity(const std::string& a, const std::string& b) {
  if (a == b) return 1.0;
  if (a.size() >= 2 && b.size() >= 2 && a[0] == b[0] && a[1] == b[1]) {
    return 0.5;
  }
  return 0.0;
}

double SoundexSimilarity(const std::string& a, const std::string& b) {
  return SoundexCodeSimilarity(Soundex(a), Soundex(b));
}

double BestMatchAverage(const std::vector<std::string>& a,
                        const std::vector<std::string>& b,
                        double (*sim)(const std::string&,
                                      const std::string&)) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  auto one_way = [&](const std::vector<std::string>& xs,
                     const std::vector<std::string>& ys) {
    double total = 0.0;
    for (const auto& x : xs) {
      double best = 0.0;
      for (const auto& y : ys) best = std::max(best, sim(x, y));
      total += best;
    }
    return total / static_cast<double>(xs.size());
  };
  return 0.5 * (one_way(a, b) + one_way(b, a));
}

}  // namespace valentine
