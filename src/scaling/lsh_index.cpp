#include "scaling/lsh_index.h"

#include <algorithm>
#include <limits>

namespace valentine {

namespace {
uint64_t HashBand(const uint64_t* values, size_t n, uint64_t band_seed) {
  uint64_t h = 1469598103934665603ULL ^ (band_seed * 0x9e3779b97f4a7c15ULL);
  for (size_t i = 0; i < n; ++i) {
    h ^= values[i];
    h *= 1099511628211ULL;
    h ^= h >> 33;
  }
  return h;
}

/// An empty set leaves every MinHash slot at the UINT64_MAX sentinel;
/// banding such a signature makes every pair of empty domains collide
/// everywhere. Empty sketches are registered but never posted/probed.
bool EmptySketch(const LazoSketch& sketch) {
  return sketch.cardinality == 0 || sketch.signature.empty_set();
}

void EraseIdFrom(std::unordered_map<uint64_t, std::vector<size_t>>* bucket_map,
                 uint64_t bucket, size_t id) {
  auto it = bucket_map->find(bucket);
  if (it == bucket_map->end()) return;
  auto& ids = it->second;
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  if (ids.empty()) bucket_map->erase(it);
}
}  // namespace

size_t LshCardinalityPartition(size_t cardinality, size_t partitions) {
  // Geometric cardinality boundaries: [0,100), [100,1k), [1k,10k), ...
  size_t partition = 0;
  size_t boundary = 100;
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  while (partition + 1 < partitions && cardinality >= boundary) {
    ++partition;
    // Saturate: once the next boundary would wrap size_t, no cardinality
    // can reach it, so every larger set shares this partition.
    if (boundary > kMax / 10) break;
    boundary *= 10;
  }
  return partition;
}

LshIndex::LshIndex(LshOptions options) : options_(options) {
  if (options_.bands == 0) options_.bands = 1;
  if (options_.rows_per_band == 0) options_.rows_per_band = 1;
  if (options_.cardinality_partitions == 0) {
    options_.cardinality_partitions = 1;
  }
  buckets_.resize(options_.cardinality_partitions);
  for (auto& partition : buckets_) partition.resize(options_.bands);
  slot_buckets_.resize(options_.bands * options_.rows_per_band);
}

size_t LshIndex::PartitionOf(size_t cardinality) const {
  return LshCardinalityPartition(cardinality,
                                 options_.cardinality_partitions);
}

void LshIndex::InsertPostings(size_t id, const LazoSketch& sketch) {
  const std::vector<uint64_t>& mins = sketch.signature.mins();
  size_t partition = PartitionOf(sketch.cardinality);
  for (size_t b = 0; b < options_.bands; ++b) {
    uint64_t bucket = HashBand(mins.data() + b * options_.rows_per_band,
                               options_.rows_per_band, b);
    buckets_[partition][b][bucket].push_back(id);
  }
  for (size_t s = 0; s < mins.size(); ++s) {
    slot_buckets_[s][mins[s]].push_back(id);
  }
}

void LshIndex::ErasePostings(size_t id, const LazoSketch& sketch) {
  const std::vector<uint64_t>& mins = sketch.signature.mins();
  size_t partition = PartitionOf(sketch.cardinality);
  for (size_t b = 0; b < options_.bands; ++b) {
    uint64_t bucket = HashBand(mins.data() + b * options_.rows_per_band,
                               options_.rows_per_band, b);
    EraseIdFrom(&buckets_[partition][b], bucket, id);
  }
  for (size_t s = 0; s < mins.size(); ++s) {
    EraseIdFrom(&slot_buckets_[s], mins[s], id);
  }
}

Status LshIndex::Add(const std::string& key,
                     const std::unordered_set<std::string>& set) {
  return AddSketch(key, LazoSketch::Build(set, signature_size()));
}

Status LshIndex::AddSketch(const std::string& key, LazoSketch sketch) {
  if (key_to_id_.count(key) != 0) {
    return Status::InvalidArgument("LshIndex: duplicate key '" + key + "'");
  }
  if (sketch.signature.mins().size() != signature_size()) {
    return Status::InvalidArgument(
        "LshIndex: sketch signature width " +
        std::to_string(sketch.signature.mins().size()) +
        " does not match index signature size " +
        std::to_string(signature_size()));
  }
  size_t id = keys_.size();
  keys_.push_back(key);
  key_to_id_[key] = id;
  live_.push_back(1);
  ++live_count_;
  if (!EmptySketch(sketch)) InsertPostings(id, sketch);
  sketches_.push_back(std::move(sketch));
  return Status::OK();
}

Status LshIndex::Remove(const std::string& key) {
  auto it = key_to_id_.find(key);
  if (it == key_to_id_.end()) {
    return Status::NotFound("LshIndex: no key '" + key + "'");
  }
  size_t id = it->second;
  if (!EmptySketch(sketches_[id])) ErasePostings(id, sketches_[id]);
  live_[id] = 0;
  --live_count_;
  key_to_id_.erase(it);
  return Status::OK();
}

std::vector<size_t> LshIndex::CandidateIds(const LazoSketch& query) const {
  const std::vector<uint64_t>& mins = query.signature.mins();
  std::vector<size_t> hits;
  // A containment-style query must probe every cardinality partition:
  // the matching domain may be much larger than the query.
  for (const auto& partition : buckets_) {
    for (size_t b = 0; b < options_.bands; ++b) {
      uint64_t bucket = HashBand(mins.data() + b * options_.rows_per_band,
                                 options_.rows_per_band, b);
      auto it = partition[b].find(bucket);
      if (it == partition[b].end()) continue;
      for (size_t id : it->second) {
        if (live_[id]) hits.push_back(id);
      }
    }
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

std::vector<size_t> LshIndex::ContainmentIds(const LazoSketch& query,
                                             double min_containment) const {
  std::vector<size_t> out;
  for (size_t id : ContainmentCandidateIds(query)) {
    if (EstimateLazo(query, sketches_[id]).containment_a_in_b >=
        min_containment) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<size_t> LshIndex::ContainmentCandidateIds(
    const LazoSketch& query) const {
  if (EmptySketch(query) || query.signature.mins().size() != signature_size()) {
    return {};
  }
  const std::vector<uint64_t>& mins = query.signature.mins();
  std::vector<size_t> hits;
  for (size_t s = 0; s < mins.size(); ++s) {
    auto it = slot_buckets_[s].find(mins[s]);
    if (it == slot_buckets_[s].end()) continue;
    for (size_t id : it->second) {
      if (live_[id]) hits.push_back(id);
    }
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

std::vector<std::string> LshIndex::Candidates(
    const std::unordered_set<std::string>& query) const {
  LazoSketch sketch = LazoSketch::Build(query, signature_size());
  if (EmptySketch(sketch)) return {};
  std::vector<std::string> out;
  for (size_t id : CandidateIds(sketch)) out.push_back(keys_[id]);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> LshIndex::ContainmentCandidates(
    const std::unordered_set<std::string>& query) const {
  LazoSketch sketch = LazoSketch::Build(query, signature_size());
  if (EmptySketch(sketch)) return {};
  std::vector<std::string> out;
  for (size_t id : ContainmentCandidateIds(sketch)) out.push_back(keys_[id]);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, double>> LshIndex::QueryJaccard(
    const std::unordered_set<std::string>& query, double min_jaccard) const {
  LazoSketch q = LazoSketch::Build(query, signature_size());
  std::vector<std::pair<std::string, double>> out;
  if (EmptySketch(q)) return out;
  for (size_t id : CandidateIds(q)) {
    LazoEstimate est = EstimateLazo(q, sketches_[id]);
    if (est.jaccard >= min_jaccard) out.emplace_back(keys_[id], est.jaccard);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::vector<std::pair<std::string, double>> LshIndex::QueryContainment(
    const std::unordered_set<std::string>& query,
    double min_containment) const {
  LazoSketch q = LazoSketch::Build(query, signature_size());
  std::vector<std::pair<std::string, double>> out;
  if (EmptySketch(q)) return out;
  for (size_t id : ContainmentCandidateIds(q)) {
    LazoEstimate est = EstimateLazo(q, sketches_[id]);
    if (est.containment_a_in_b >= min_containment) {
      out.emplace_back(keys_[id], est.containment_a_in_b);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace valentine
