#include "text/string_similarity.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>

#include "obs/opcount.h"

namespace valentine {

namespace {

/// Bucket of each byte in a FoldedBag: the ASCII digits own buckets
/// 0-9 (ids, codes and dates are full of them), every other byte folds
/// into 10 + byte % 22. Any fold keeps FoldedBagDistance a lower bound.
constexpr std::array<uint8_t, 256> kBagBucket = [] {
  std::array<uint8_t, 256> bucket{};
  for (size_t c = 0; c < bucket.size(); ++c) {
    bucket[c] = static_cast<uint8_t>(
        c >= '0' && c <= '9' ? c - '0' : 10 + c % 22);
  }
  return bucket;
}();

/// Longest pattern the bit-parallel kernel takes: one bit per byte.
constexpr size_t kBitParallelMaxPattern = 64;

/// Myers/Hyyro state for one pattern: per byte value, the mask of the
/// pattern positions holding it. SetPattern and ClearPattern touch only
/// the pattern's bytes, so one zeroed table serves every pattern a
/// thread sets.
class BitParallelPattern {
 public:
  void SetPattern(const std::string& pattern) {
    size_ = pattern.size();
    for (size_t i = 0; i < size_; ++i) {
      peq_[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
    }
  }
  void ClearPattern(const std::string& pattern) {
    for (unsigned char c : pattern) peq_[c] = 0;
  }

  /// Exact distance from the set 1-64 byte pattern to `text`. Column
  /// j of the DP is kept as vertical delta bit vectors (pv: +1, mv: -1);
  /// `score` tracks its last row, D[size_][j].
  size_t Distance(const std::string& text) const {
    const uint64_t last = uint64_t{1} << (size_ - 1);
    uint64_t pv = ~uint64_t{0};
    uint64_t mv = 0;
    size_t score = size_;
    for (unsigned char c : text) {
      const uint64_t eq = peq_[c];
      const uint64_t xv = eq | mv;
      const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      uint64_t ph = mv | ~(xh | pv);
      uint64_t mh = pv & xh;
      score += (ph & last) != 0;
      score -= (mh & last) != 0;
      // Row 0 is D[0][j] = j: its horizontal delta is always +1.
      ph = (ph << 1) | 1;
      mh <<= 1;
      pv = mh | ~(xv | ph);
      mv = ph & xv;
    }
    return score;
  }

 private:
  std::array<uint64_t, 256> peq_{};
  size_t size_ = 0;
};

BitParallelPattern& ThreadPattern() {
  thread_local BitParallelPattern pattern;  // invariant: cleared between uses
  return pattern;
}

/// Marks the exact matches inside one run of equal hashes, `ra` and
/// `rb` holding the run's indices in input order. Returns the pairs
/// marked.
size_t MatchHashRun(const FuzzyJaccardColumn& a, const FuzzyJaccardColumn& b,
                    std::vector<uint32_t>& ra, std::vector<uint32_t>& rb,
                    std::vector<char>& a_hit, std::vector<char>& b_hit) {
  if (ra.size() == 1 && rb.size() == 1) {
    if (a.values[ra[0]] != b.values[rb[0]]) return 0;
    a_hit[ra[0]] = b_hit[rb[0]] = 1;
    return 1;
  }
  // Duplicates or a hash collision: group each side by string. The
  // stable sort keeps equal strings in input order.
  std::stable_sort(ra.begin(), ra.end(), [&](uint32_t x, uint32_t y) {
    return a.values[x] < a.values[y];
  });
  std::stable_sort(rb.begin(), rb.end(), [&](uint32_t x, uint32_t y) {
    return b.values[x] < b.values[y];
  });
  size_t matched = 0;
  size_t p = 0;
  size_t q = 0;
  while (p < ra.size() && q < rb.size()) {
    const std::string& s = a.values[ra[p]];
    const int order = s.compare(b.values[rb[q]]);
    size_t p_end = p + 1;
    size_t q_end = q + 1;
    if (order <= 0) {
      while (p_end < ra.size() && a.values[ra[p_end]] == s) ++p_end;
    }
    if (order >= 0) {
      while (q_end < rb.size() && b.values[rb[q_end]] == b.values[rb[q]]) {
        ++q_end;
      }
    }
    if (order == 0) {
      // The first k occurrences in a meet the last k in b.
      const size_t k = std::min(p_end - p, q_end - q);
      for (size_t i = p; i < p + k; ++i) a_hit[ra[i]] = 1;
      for (size_t j = q_end - k; j < q_end; ++j) b_hit[rb[j]] = 1;
      matched += k;
    }
    if (order <= 0) p = p_end;
    if (order >= 0) q = q_end;
  }
  return matched;
}

/// Marks every exact match between the two columns (see FuzzyJaccard)
/// by merging their sorted hashes. Returns the pairs marked.
size_t MarkExactMatches(const FuzzyJaccardColumn& a,
                        const FuzzyJaccardColumn& b, std::vector<char>& a_hit,
                        std::vector<char>& b_hit) {
  thread_local std::vector<uint32_t> run_a;
  thread_local std::vector<uint32_t> run_b;
  a_hit.assign(a.values.size(), 0);
  b_hit.assign(b.values.size(), 0);
  size_t matched = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.by_hash.size() && j < b.by_hash.size()) {
    const uint64_t ha = a.by_hash[i].hash;
    const uint64_t hb = b.by_hash[j].hash;
    if (ha != hb) {
      if (ha < hb) {
        ++i;
      } else {
        ++j;
      }
      continue;
    }
    run_a.clear();
    run_b.clear();
    for (; i < a.by_hash.size() && a.by_hash[i].hash == ha; ++i) {
      run_a.push_back(a.by_hash[i].index);
    }
    for (; j < b.by_hash.size() && b.by_hash[j].hash == hb; ++j) {
      run_b.push_back(b.by_hash[j].index);
    }
    matched += MatchHashRun(a, b, run_a, run_b, a_hit, b_hit);
  }
  return matched;
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

size_t LevenshteinBitParallel(const std::string& pattern,
                              const std::string& text) {
  if (pattern.empty()) return text.size();
  if (pattern.size() > kBitParallelMaxPattern) {
    return LevenshteinDistance(pattern, text);
  }
  BitParallelPattern& bits = ThreadPattern();
  bits.SetPattern(pattern);
  const size_t d = bits.Distance(text);
  bits.ClearPattern(pattern);
  opcount::Add(opcount::Op::kLevenshteinBitParallelSteps, text.size());
  return d;
}

FoldedBag FoldBag(const std::string& s) {
  FoldedBag bag{};
  for (unsigned char c : s) {
    uint8_t& count = bag[kBagBucket[c]];
    if (count != UINT8_MAX) ++count;
  }
  return bag;
}

size_t FoldedBagDistance(const FoldedBag& a, const FoldedBag& b) {
  // With surplus_a = sum of max(a_k - b_k, 0) and surplus_b likewise,
  // sum |a_k - b_k| = surplus_a + surplus_b and sum a_k - sum b_k =
  // surplus_a - surplus_b, so the larger surplus is half of
  // sum |a_k - b_k| + |sum a_k - sum b_k|. Written this way both loops
  // vectorize to byte-wise sums; 16-bit totals hold 32 x 255.
  unsigned abs_diff = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    abs_diff += static_cast<unsigned>(std::abs(int{a[k]} - int{b[k]}));
  }
  uint16_t total_a = 0;
  uint16_t total_b = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    total_a += a[k];
    total_b += b[k];
  }
  const unsigned net =
      total_a > total_b ? total_a - total_b : total_b - total_a;
  return (abs_diff + net) / 2;
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

FuzzyJaccardColumn FuzzyJaccardColumn::Build(std::vector<std::string> values) {
  FuzzyJaccardColumn column;
  const size_t n = values.size();
  column.lengths.reserve(n);
  column.by_hash.reserve(n);
  column.bags.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& v = values[i];
    column.lengths.push_back(static_cast<uint32_t>(v.size()));
    column.by_hash.push_back(
        {std::hash<std::string>{}(v), static_cast<uint32_t>(i)});
    column.bags.push_back(FoldBag(v));
  }
  std::sort(column.by_hash.begin(), column.by_hash.end(),
            [](const HashedIndex& x, const HashedIndex& y) {
              return x.hash != y.hash ? x.hash < y.hash : x.index < y.index;
            });
  column.values = std::move(values);
  return column;
}

double FuzzyJaccard(const FuzzyJaccardColumn& a, const FuzzyJaccardColumn& b,
                    double max_distance, LevenshteinKernel kernel) {
  if (a.values.empty() && b.values.empty()) return 1.0;
  if (a.values.empty() || b.values.empty()) return 0.0;
  // Per-thread scratch: the campaign scores column pairs on several
  // threads, each reusing its own buffers.
  thread_local std::vector<char> a_hit;
  thread_local std::vector<char> b_hit;
  thread_local std::vector<uint32_t> a_left;
  thread_local std::vector<uint32_t> b_left;
  thread_local std::vector<char> b_used;
  size_t matched = MarkExactMatches(a, b, a_hit, b_hit);
  a_left.clear();
  b_left.clear();
  for (uint32_t i = 0; i < a_hit.size(); ++i) {
    if (!a_hit[i]) a_left.push_back(i);
  }
  for (uint32_t j = 0; j < b_hit.size(); ++j) {
    if (!b_hit[j]) b_left.push_back(j);
  }
  b_used.assign(b_left.size(), 0);
  // Kernel op counts, flushed once per call.
  uint64_t bag_hits = 0;
  uint64_t bag_misses = 0;
  uint64_t steps = 0;
  if (max_distance > 0.0) {
    BitParallelPattern& bits = ThreadPattern();
    for (uint32_t ia : a_left) {
      const std::string& s = a.values[ia];
      const size_t la = a.lengths[ia];
      const bool bit_parallel = la >= 1 && la <= kBitParallelMaxPattern;
      bool pattern_set = false;
      for (size_t k = 0; k < b_left.size(); ++k) {
        if (b_used[k]) continue;
        const uint32_t ib = b_left[k];
        const size_t lb = b.lengths[ib];
        const size_t max_len = std::max(la, lb);
        if (max_len == 0) continue;
        // Length prefilter: the edit distance is at least the length
        // difference, so such pairs can never clear the threshold.
        const size_t min_len = std::min(la, lb);
        const double limit = max_distance * static_cast<double>(max_len);
        if (static_cast<double>(max_len - min_len) > limit) continue;
        size_t dist;
        if (kernel == LevenshteinKernel::kBanded) {
          // floor(max_distance * max_len) + 1 over-covers every distance
          // the floating-point accept test below could admit (float
          // rounding can only misplace the product by far less than 1),
          // so cutting off there never changes a score.
          const size_t bound = static_cast<size_t>(limit) + 1;
          // The folded bag bound never exceeds the true distance, so a
          // pair it rejects could never pass the accept test below.
          if (FoldedBagDistance(a.bags[ia], b.bags[ib]) > bound) {
            ++bag_hits;
            continue;
          }
          ++bag_misses;
          if (bit_parallel) {
            if (!pattern_set) {
              bits.SetPattern(s);
              pattern_set = true;
            }
            dist = bits.Distance(b.values[ib]);
            steps += lb;
          } else {
            dist = LevenshteinWithin(s, b.values[ib], bound);
            if (dist > bound) continue;
          }
        } else {
          dist = LevenshteinDistance(s, b.values[ib]);
        }
        const double norm =
            static_cast<double>(dist) / static_cast<double>(max_len);
        if (norm <= max_distance) {
          b_used[k] = 1;
          ++matched;
          break;
        }
      }
      if (pattern_set) bits.ClearPattern(s);
    }
  }
  opcount::Add(opcount::Op::kBagPrefilterHits, bag_hits);
  opcount::Add(opcount::Op::kBagPrefilterMisses, bag_misses);
  opcount::Add(opcount::Op::kLevenshteinBitParallelSteps, steps);
  const size_t uni = a.values.size() + b.values.size() - matched;
  if (uni == 0) return 1.0;
  return static_cast<double>(matched) / static_cast<double>(uni);
}

double FuzzyJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b, double max_distance) {
  return FuzzyJaccard(a, b, max_distance, LevenshteinKernel::kBanded);
}

double FuzzyJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b, double max_distance,
                    LevenshteinKernel kernel) {
  return FuzzyJaccard(FuzzyJaccardColumn::Build(a),
                      FuzzyJaccardColumn::Build(b), max_distance, kernel);
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
