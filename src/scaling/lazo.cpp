#include "scaling/lazo.h"

#include <algorithm>

namespace valentine {

LazoEstimate EstimateLazo(const LazoSketch& a, const LazoSketch& b) {
  LazoEstimate out;
  if (a.cardinality == 0 && b.cardinality == 0) {
    out.jaccard = 1.0;
    return out;
  }
  if (a.cardinality == 0 || b.cardinality == 0) return out;
  return EstimateLazoFromJaccard(a.signature.EstimateJaccard(b.signature),
                                 a.cardinality, b.cardinality);
}

LazoEstimate EstimateLazoFromJaccard(double jaccard, size_t cardinality_a,
                                     size_t cardinality_b) {
  LazoEstimate out;
  double total = static_cast<double>(cardinality_a + cardinality_b);
  double inter = jaccard / (1.0 + jaccard) * total;
  // The intersection can never exceed the smaller set.
  inter = std::min(inter, static_cast<double>(
                              std::min(cardinality_a, cardinality_b)));
  out.jaccard = jaccard;
  out.intersection_size = inter;
  out.containment_a_in_b = inter / static_cast<double>(cardinality_a);
  out.containment_b_in_a = inter / static_cast<double>(cardinality_b);
  out.containment_a_in_b = std::min(out.containment_a_in_b, 1.0);
  out.containment_b_in_a = std::min(out.containment_b_in_a, 1.0);
  return out;
}

}  // namespace valentine
