#ifndef VALENTINE_SCALING_LAZO_H_
#define VALENTINE_SCALING_LAZO_H_

/// \file lazo.h
/// Lazo-style coupled estimation of Jaccard similarity *and* containment
/// from MinHash signatures plus set cardinalities (Fernandez, Min, Nava,
/// Madden — ICDE 2019, cited by the paper's §IX as the direction for
/// scaling instance-based matching).
///
/// From an estimated Jaccard J and the two cardinalities, the
/// intersection size is |A ∩ B| ≈ J / (1 + J) * (|A| + |B|), which gives
/// both containments without a second pass over the data.

#include <cstddef>

#include "stats/minhash.h"

namespace valentine {

/// Jaccard + both containments, estimated together.
struct LazoEstimate {
  double jaccard = 0.0;
  double containment_a_in_b = 0.0;  ///< |A∩B| / |A|
  double containment_b_in_a = 0.0;  ///< |A∩B| / |B|
  double intersection_size = 0.0;
};

/// LSH banding of a signature: `bands` x `rows_per_band` slots. Two sets
/// with Jaccard s share at least one band with probability
/// 1 - (1 - s^rows)^bands (the usual S-curve).
struct LshOptions {
  size_t bands = 16;
  size_t rows_per_band = 8;
};

/// \brief A sketch of one set: signature + cardinality.
struct LazoSketch {
  MinHashSignature signature;
  size_t cardinality = 0;

  static LazoSketch Build(const std::unordered_set<std::string>& set,
                          size_t num_hashes = 128) {
    return {MinHashSignature::Build(set, num_hashes), set.size()};
  }
};

/// Estimates Jaccard and containment between two sketched sets.
LazoEstimate EstimateLazo(const LazoSketch& a, const LazoSketch& b);

/// The same estimate from an already known Jaccard estimate of two
/// non-empty sets, e.g. agreeing slots / width counted while probing
/// slot postings. EstimateLazo of two non-empty sketches is exactly
/// this of their EstimateJaccard.
LazoEstimate EstimateLazoFromJaccard(double jaccard, size_t cardinality_a,
                                     size_t cardinality_b);

}  // namespace valentine

#endif  // VALENTINE_SCALING_LAZO_H_
