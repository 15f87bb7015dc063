#ifndef VALENTINE_STATS_MINHASH_H_
#define VALENTINE_STATS_MINHASH_H_

/// \file minhash.h
/// MinHash signatures for fast Jaccard estimation over value sets.
/// SemProp's syntactic matcher filters column pairs by estimated set
/// overlap (its `minh.threshold` parameter) before the semantic stage.
///
/// Kernel contract. Slot h of a signature is the minimum, over the
/// set's values, of FNV-1a 64 over the value's bytes from the offset
/// basis 1469598103934665603 ^ (h * 0x9e3779b97f4a7c15), followed by
/// the avalanche x ^= x >> 33; x *= 0xff51afd7ed558ccd; x ^= x >> 33.
/// That hash family is persisted: the discovery store (VDA1 files)
/// keeps signatures keyed by a content fingerprint that does not cover
/// the hash, so a changed family would leave every stored table
/// silently unmatchable. Build therefore has to stay bit-identical to
/// that serial per-seed definition; it only reorders the work, hashing
/// eight seeds per pass over each value's bytes (independent chains the
/// CPU overlaps) with a one-seed tail loop for widths that are not a
/// multiple of eight. tests/stats_minhash_test.cpp pins it against an
/// in-test copy of the serial loop and golden values, and
/// `bench_kernels --smoke` checks it bit for bit.

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace valentine {

/// \brief A fixed-width MinHash signature of a string set.
class MinHashSignature {
 public:
  /// Builds a signature with `num_hashes` permutations (seeded
  /// deterministically from the permutation index; see the file
  /// comment for the exact, persisted hash family).
  static MinHashSignature Build(const std::unordered_set<std::string>& set,
                                size_t num_hashes = 128);

  /// Reconstructs a signature from its raw slots (the persistent-store
  /// load path). `empty_set` must be the flag the original Build
  /// recorded: an empty set leaves every slot at the UINT64_MAX
  /// sentinel, and consumers (Jaccard estimation, LSH banding) must be
  /// able to distinguish "empty domain" from a pathological singleton
  /// that genuinely hashed to the sentinel everywhere.
  static MinHashSignature FromMins(std::vector<uint64_t> mins,
                                   bool empty_set);

  /// Estimated Jaccard similarity: fraction of agreeing slots.
  double EstimateJaccard(const MinHashSignature& other) const;

  size_t size() const { return mins_.size(); }
  bool empty_set() const { return empty_set_; }

  /// Raw per-permutation minima (used by LSH banding).
  const std::vector<uint64_t>& mins() const { return mins_; }

 private:
  std::vector<uint64_t> mins_;
  bool empty_set_ = true;
};

}  // namespace valentine

#endif  // VALENTINE_STATS_MINHASH_H_
