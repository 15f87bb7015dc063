#ifndef VALENTINE_SCALING_LSH_INDEX_H_
#define VALENTINE_SCALING_LSH_INDEX_H_

/// \file lsh_index.h
/// MinHash-LSH domain index in the spirit of LSH Ensemble (Zhu,
/// Nargesian, Pu, Miller — "internet-scale domain search", cited in the
/// paper's §IX): signatures are banded, bands are hashed into buckets,
/// and a query only compares against columns that collide in at least
/// one band. Partitioning by set cardinality sharpens containment
/// queries when domain sizes are skewed.
///
/// Correctness contracts (regression-tested in tests/scaling_test.cpp):
///  * Keys are unique. Adding a key that is already present is rejected
///    with kInvalidArgument instead of silently remapping the key to a
///    new sketch while stale postings keep serving the old one.
///  * Query paths are id-based end to end: a candidate id scores
///    against exactly the sketch that was banded under that id, never
///    against whatever sketch a same-named key pointed to last.
///  * Empty sets never band. An empty set leaves every signature slot
///    at the UINT64_MAX sentinel, so before this guard every pair of
///    empty domains collided in every band and slot and surfaced as
///    spurious candidates with Lazo jaccard 1.0. Empty sets are
///    registered (size/Contains see them) but never enter postings, and
///    empty queries return no candidates.
///  * Removal is supported: Remove(key) physically erases the entry's
///    postings, so an index that tracked a mutating repository serves
///    exactly the live keys.
///
/// Cost model. Add allocates per posting: one key string, one sketch
/// copy, and a hash-map node plus id vector in `bands` band maps and in
/// `bands * rows_per_band` slot maps; Remove frees them again. That is
/// the price of in-place mutation. Discovery does not use this class:
/// its LshCandidateIndex (discovery/candidate_index.h) keeps only
/// immutable segments with flat slot postings, and no band maps. The
/// scaling layer's ApproximateOverlapMatcher uses LshIndex, and the
/// discovery tests use its ContainmentIds / ContainmentCandidateIds as
/// an independent reference for the flat layout.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/status.h"
#include "scaling/lazo.h"

namespace valentine {

/// LSH configuration. With `bands` x `rows_per_band` = signature size,
/// the collision probability of two sets with Jaccard s is
/// 1 - (1 - s^rows)^bands (the usual S-curve).
struct LshOptions {
  size_t bands = 16;
  size_t rows_per_band = 8;
  /// Number of cardinality partitions (1 disables partitioning).
  size_t cardinality_partitions = 4;
};

/// Geometric cardinality partition: [0,100) -> 0, [100,1k) -> 1,
/// [1k,10k) -> 2, ... capped at `partitions - 1`. The boundary
/// saturates instead of overflowing size_t, so extreme partition counts
/// (where 100 * 10^p wraps) keep the mapping monotonic in cardinality.
size_t LshCardinalityPartition(size_t cardinality, size_t partitions);

/// \brief Banded MinHash-LSH index over named value sets.
class LshIndex {
 public:
  explicit LshIndex(LshOptions options = {});

  /// Number of hash slots per signature (bands x rows).
  size_t signature_size() const {
    return options_.bands * options_.rows_per_band;
  }

  /// Sketches and adds a named set. Fails with kInvalidArgument on a
  /// duplicate key (remove first to replace).
  [[nodiscard]] Status Add(const std::string& key,
                           const std::unordered_set<std::string>& set);

  /// Adds a pre-built sketch (the persistent-store load path: a sketch
  /// deserialized from disk bands identically to one built inline).
  /// Fails on duplicate keys and on sketches whose signature width
  /// disagrees with signature_size().
  [[nodiscard]] Status AddSketch(const std::string& key, LazoSketch sketch);

  /// Removes a key and its postings; kNotFound when absent. The key may
  /// be re-added afterwards (with a fresh sketch).
  [[nodiscard]] Status Remove(const std::string& key);

  bool Contains(const std::string& key) const {
    return key_to_id_.count(key) != 0;
  }

  /// Number of live (added and not removed) keys.
  size_t size() const { return live_count_; }

  /// Keys whose signatures collide with the query in >= 1 band;
  /// the superset from which exact/estimated verification proceeds.
  /// Sorted by key. Empty queries produce no candidates.
  std::vector<std::string> Candidates(
      const std::unordered_set<std::string>& query) const;

  /// Containment-oriented candidates: single-slot (r = 1) probing, the
  /// recall-end of the banding S-curve. A small query contained in a
  /// large domain has low Jaccard, so Jaccard banding would miss it;
  /// slot-level collisions (expected J x slots agreeing) do not.
  std::vector<std::string> ContainmentCandidates(
      const std::unordered_set<std::string>& query) const;

  /// Candidate keys with Lazo-estimated Jaccard >= `min_jaccard`,
  /// ranked by estimate (descending).
  std::vector<std::pair<std::string, double>> QueryJaccard(
      const std::unordered_set<std::string>& query,
      double min_jaccard) const;

  /// Candidate keys with estimated containment(query in candidate) >=
  /// `min_containment`, ranked descending — the joinability query of
  /// LSH Ensemble.
  std::vector<std::pair<std::string, double>> QueryContainment(
      const std::unordered_set<std::string>& query,
      double min_containment) const;

  /// Id-level forms of ContainmentCandidates and QueryContainment for a
  /// query already sketched at signature_size(): a caller probing
  /// several indexes sketches each query once, and maps hits to its own
  /// records without building key strings. The n-th key ever added has
  /// id n; ids are never reused and only live entries are returned.
  /// Sorted ascending. An empty sketch, or one of another width,
  /// matches nothing.
  std::vector<size_t> ContainmentCandidateIds(const LazoSketch& query) const;
  std::vector<size_t> ContainmentIds(const LazoSketch& query,
                                     double min_containment) const;

 private:
  size_t PartitionOf(size_t cardinality) const;
  void InsertPostings(size_t id, const LazoSketch& sketch);
  void ErasePostings(size_t id, const LazoSketch& sketch);

  /// Live entry ids colliding with the query in >= 1 band (sorted,
  /// deduplicated). Empty-query guard lives in the callers.
  std::vector<size_t> CandidateIds(const LazoSketch& query) const;

  LshOptions options_;
  std::vector<std::string> keys_;      ///< id -> key (id slot never reused)
  std::vector<LazoSketch> sketches_;   ///< id -> the sketch that was banded
  std::vector<uint8_t> live_;          ///< id -> still registered?
  size_t live_count_ = 0;
  std::unordered_map<std::string, size_t> key_to_id_;
  /// partition -> band -> bucket-hash -> entry ids.
  std::vector<std::vector<std::unordered_map<uint64_t, std::vector<size_t>>>>
      buckets_;
  /// slot -> min-value -> entry ids (r = 1 probing for containment).
  std::vector<std::unordered_map<uint64_t, std::vector<size_t>>>
      slot_buckets_;
};

}  // namespace valentine

#endif  // VALENTINE_SCALING_LSH_INDEX_H_
