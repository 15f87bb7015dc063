#include "stats/minhash.h"

#include <limits>

#include "obs/opcount.h"

namespace valentine {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ULL;

/// Seeds hashed together per pass over a value's bytes. The lanes are
/// independent FNV-1a chains, so the multiplies of different seeds
/// overlap instead of waiting on one another.
constexpr size_t kLanes = 8;

uint64_t SeedBasis(size_t seed) {
  return kFnvOffset ^ (static_cast<uint64_t>(seed) * kSeedMix);
}

/// Final avalanche so per-seed hash families are well mixed.
uint64_t Finalize(uint64_t hash) {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  return hash;
}

/// Folds the hashes of `s` under seeds [first, first + kLanes) into
/// mins[first..].
void MinLanes(const std::string& s, size_t first, uint64_t* mins) {
  uint64_t lane[kLanes];
  for (size_t l = 0; l < kLanes; ++l) lane[l] = SeedBasis(first + l);
  for (unsigned char c : s) {
    for (size_t l = 0; l < kLanes; ++l) {
      lane[l] ^= c;
      lane[l] *= kFnvPrime;
    }
  }
  for (size_t l = 0; l < kLanes; ++l) {
    const uint64_t v = Finalize(lane[l]);
    if (v < mins[first + l]) mins[first + l] = v;
  }
}

/// One seed at a time: the widths past the last full group of lanes.
void MinOne(const std::string& s, size_t seed, uint64_t* mins) {
  uint64_t hash = SeedBasis(seed);
  for (unsigned char c : s) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  const uint64_t v = Finalize(hash);
  if (v < mins[seed]) mins[seed] = v;
}

}  // namespace

MinHashSignature MinHashSignature::Build(
    const std::unordered_set<std::string>& set, size_t num_hashes) {
  MinHashSignature sig;
  sig.mins_.assign(num_hashes, std::numeric_limits<uint64_t>::max());
  sig.empty_set_ = set.empty();
  opcount::Add(opcount::Op::kMinHashHashes,
               static_cast<uint64_t>(set.size()) * num_hashes);
  uint64_t* mins = sig.mins_.data();
  const size_t full = num_hashes - num_hashes % kLanes;
  // Per-slot min is commutative: any iteration order yields the same
  // signature.
  for (const std::string& s : set) {  // lint:allow(unordered-iteration)
    for (size_t h = 0; h < full; h += kLanes) MinLanes(s, h, mins);
    for (size_t h = full; h < num_hashes; ++h) MinOne(s, h, mins);
  }
  return sig;
}

MinHashSignature MinHashSignature::FromMins(std::vector<uint64_t> mins,
                                            bool empty_set) {
  MinHashSignature sig;
  sig.mins_ = std::move(mins);
  sig.empty_set_ = empty_set;
  return sig;
}

double MinHashSignature::EstimateJaccard(const MinHashSignature& other) const {
  if (empty_set_ && other.empty_set_) return 1.0;
  if (empty_set_ || other.empty_set_) return 0.0;
  if (mins_.size() != other.mins_.size() || mins_.empty()) return 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < mins_.size(); ++i) {
    if (mins_[i] == other.mins_[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(mins_.size());
}

}  // namespace valentine
