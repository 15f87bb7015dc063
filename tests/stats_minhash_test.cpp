#include "stats/minhash.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/rng.h"
#include "text/string_similarity.h"

namespace valentine {
namespace {

std::unordered_set<std::string> MakeSet(int lo, int hi) {
  std::unordered_set<std::string> s;
  for (int i = lo; i < hi; ++i) {
    s.insert(std::string("v").append(std::to_string(i)));
  }
  return s;
}

std::vector<uint64_t> MakeSetSignature128() {
  return MinHashSignature::Build(MakeSet(0, 100), 128).mins();
}

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  auto set = MakeSet(0, 100);
  auto sig_a = MinHashSignature::Build(set, 64);
  auto sig_b = MinHashSignature::Build(set, 64);
  EXPECT_DOUBLE_EQ(sig_a.EstimateJaccard(sig_b), 1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  auto sig_a = MinHashSignature::Build(MakeSet(0, 200), 128);
  auto sig_b = MinHashSignature::Build(MakeSet(1000, 1200), 128);
  EXPECT_LT(sig_a.EstimateJaccard(sig_b), 0.05);
}

TEST(MinHashTest, EstimateTracksTrueJaccard) {
  // |A ∩ B| = 100, |A ∪ B| = 300 -> J = 1/3.
  auto a = MakeSet(0, 200);
  auto b = MakeSet(100, 300);
  double truth = JaccardSimilarity(a, b);
  auto sig_a = MinHashSignature::Build(a, 256);
  auto sig_b = MinHashSignature::Build(b, 256);
  EXPECT_NEAR(sig_a.EstimateJaccard(sig_b), truth, 0.08);
}

TEST(MinHashTest, EmptySets) {
  auto empty = MinHashSignature::Build({}, 64);
  auto full = MinHashSignature::Build(MakeSet(0, 10), 64);
  EXPECT_DOUBLE_EQ(empty.EstimateJaccard(empty), 1.0);
  EXPECT_DOUBLE_EQ(empty.EstimateJaccard(full), 0.0);
  EXPECT_TRUE(empty.empty_set());
  EXPECT_FALSE(full.empty_set());
}

TEST(MinHashTest, SignatureSize) {
  auto sig = MinHashSignature::Build(MakeSet(0, 10), 32);
  EXPECT_EQ(sig.size(), 32u);
}

TEST(MinHashTest, MismatchedSizesGiveZero) {
  auto a = MinHashSignature::Build(MakeSet(0, 10), 32);
  auto b = MinHashSignature::Build(MakeSet(0, 10), 64);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 0.0);
}

// The hash family as first defined: one FNV-1a chain per seed, serially.
// Persisted signatures (the discovery store's VDA1 files) were built
// with it, so MinHashSignature::Build must reproduce it bit for bit.
std::vector<uint64_t> SerialMins(const std::unordered_set<std::string>& set,
                                 size_t num_hashes) {
  std::vector<uint64_t> mins(num_hashes,
                             std::numeric_limits<uint64_t>::max());
  for (const std::string& s : set) {  // lint:allow(unordered-iteration)
    for (size_t seed = 0; seed < num_hashes; ++seed) {
      uint64_t hash =
          1469598103934665603ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
      for (unsigned char c : s) {
        hash ^= c;
        hash *= 1099511628211ULL;
      }
      hash ^= hash >> 33;
      hash *= 0xff51afd7ed558ccdULL;
      hash ^= hash >> 33;
      if (hash < mins[seed]) mins[seed] = hash;
    }
  }
  return mins;
}

/// `count` distinct values of 0-100 arbitrary bytes, NUL and bytes at
/// or above 0x80 included.
std::unordered_set<std::string> RandomByteSet(Rng* rng, size_t count) {
  std::unordered_set<std::string> set;
  while (set.size() < count) {
    std::string value(rng->Index(101), '\0');
    for (char& c : value) c = static_cast<char>(rng->Index(256));
    set.insert(std::move(value));
  }
  return set;
}

TEST(MinHashKernelTest, MatchesSerialPerSeedLoop) {
  Rng rng(20261018);
  for (size_t count : {0, 1, 2, 7, 48, 333, 1000}) {
    const std::unordered_set<std::string> set = RandomByteSet(&rng, count);
    for (size_t width : {0, 1, 7, 8, 9, 64, 100, 128, 256}) {
      const MinHashSignature sig = MinHashSignature::Build(set, width);
      EXPECT_EQ(sig.mins(), SerialMins(set, width))
          << "values=" << count << " width=" << width;
      EXPECT_EQ(sig.empty_set(), set.empty());
    }
  }
}

TEST(MinHashKernelTest, EdgeBytesMatchSerialLoop) {
  const std::unordered_set<std::string> set = {
      std::string(),
      std::string(1, '\0'),
      std::string(3, '\0'),
      std::string("\x80\xff\x7f", 3),
      std::string(100, '\xff'),
      std::string("a\0b", 3)};
  for (size_t width : {1, 8, 9, 128}) {
    EXPECT_EQ(MinHashSignature::Build(set, width).mins(),
              SerialMins(set, width))
        << "width=" << width;
  }
}

// Golden slots of the persisted hash family: a change here invalidates
// every stored signature, so these values must never be regenerated to
// make a kernel pass.
TEST(MinHashKernelTest, GoldenValues) {
  const MinHashSignature words =
      MinHashSignature::Build({"berlin", "paris", "rome"}, 9);
  const std::vector<uint64_t> want_words = {
      0x094b95b948f791faULL, 0x26a54d3c8cb3cbf7ULL, 0x0b0f60acc0ebef93ULL,
      0xa277b275883dccaeULL, 0x5e165383dcee5e33ULL, 0x26bbefb71344d9fbULL,
      0xafcaadb50634f8d2ULL, 0x4b195eeea1e0695aULL, 0xa1d9edf6c30e9e35ULL};
  EXPECT_EQ(words.mins(), want_words);

  const MinHashSignature single = MinHashSignature::Build({"a"}, 3);
  const std::vector<uint64_t> want_single = {
      0x6cd53dd3a3028c95ULL, 0xf487a78e527b1946ULL, 0x93ca233d5ce60674ULL};
  EXPECT_EQ(single.mins(), want_single);

  const MinHashSignature bytes = MinHashSignature::Build(
      {std::string(), std::string("\0\x80\xff", 3)}, 2);
  const std::vector<uint64_t> want_bytes = {0x1752529d117f92e1ULL,
                                            0x489aa21b87c23643ULL};
  EXPECT_EQ(bytes.mins(), want_bytes);

  const std::vector<uint64_t> wide = MakeSetSignature128();
  EXPECT_EQ(wide[0], 0x009102ee5bff3aaaULL);
  EXPECT_EQ(wide[127], 0x032e60ce3e4e819cULL);
}

// Property sweep over overlap fractions: the estimate must be monotone
// in expectation and stay within a loose tolerance band.
class MinHashAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(MinHashAccuracyTest, EstimateWithinTolerance) {
  int overlap = GetParam();  // percent of 200 elements shared
  auto a = MakeSet(0, 200);
  auto b = MakeSet(200 - 2 * overlap, 400 - 2 * overlap);
  double truth = JaccardSimilarity(a, b);
  auto sig_a = MinHashSignature::Build(a, 256);
  auto sig_b = MinHashSignature::Build(b, 256);
  EXPECT_NEAR(sig_a.EstimateJaccard(sig_b), truth, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Overlaps, MinHashAccuracyTest,
                         ::testing::Values(0, 10, 25, 50, 75, 90, 100));

}  // namespace
}  // namespace valentine
