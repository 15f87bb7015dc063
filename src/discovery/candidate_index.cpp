#include "discovery/candidate_index.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "scaling/lazo.h"
#include "text/tokenizer.h"

namespace valentine {

namespace {

/// Degraded nomination: the whole repository, flagged. Used when the
/// index cannot see the query at all — the caller counts the event in
/// valentine_discovery_fallback_total instead of dropping the fact.
RetrievedCandidates FallbackToExhaustive(const TableRepository& repository,
                                         const std::string& index_name,
                                         const std::string& reason) {
  RetrievedCandidates out;
  out.index = index_name;
  out.fallback = true;
  out.fallback_reason = reason;
  for (size_t i = 0; i < repository.size(); ++i) {
    out.tables.insert(repository.entry(i).table.name());
  }
  return out;
}

}  // namespace

LshCandidateIndex::LshCandidateIndex(Options options) : options_(options) {}

size_t LshCandidateIndex::Segment::HomeBucket(uint32_t position,
                                              uint64_t min) const {
  // Min values are avalanche-mixed hashes, but small ones dominate (a
  // minimum has leading zeros); multiplying and keeping the top bits
  // spreads every input bit over the bucket number.
  const uint64_t key = min ^ (position * 0x9e3779b97f4a7c15ULL);
  return static_cast<size_t>((key * 0xff51afd7ed558ccdULL) >> shift);
}

void LshCandidateIndex::Segment::BuildPostings() {
  constexpr size_t width = kDiscoverySignatureSize;
  // Column ids follow banding order; empty value sets never band.
  std::vector<const uint64_t*> mins_of;
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    for (const ColumnDiscoveryArtifact& c : slots[slot].artifact->columns) {
      if (c.sketch.cardinality == 0 || c.sketch.signature.empty_set()) {
        continue;
      }
      columns.push_back({static_cast<uint32_t>(slot), c.sketch.cardinality});
      mins_of.push_back(c.sketch.signature.mins().data());
    }
  }
  // Ids and offsets are 32-bit: 2^32 postings would need more than
  // 96 GiB of buckets, so memory runs out long before they could wrap.
  const size_t postings = columns.size() * width;
  if (postings == 0) return;
  // At most `postings` distinct keys: a load factor of at most 2/3.
  size_t capacity = 2;
  unsigned log2_capacity = 1;
  while (capacity < postings + postings / 2) {
    capacity *= 2;
    ++log2_capacity;
  }
  shift = 64 - log2_capacity;
  buckets.assign(capacity, Bucket{});
  const size_t mask = capacity - 1;

  // Pass 1: claim each (signature slot, min) key's bucket and count its
  // ids in `run` (0 = free while counting).
  std::vector<uint32_t> bucket_of(postings);
  for (size_t id = 0; id < columns.size(); ++id) {
    for (uint32_t position = 0; position < width; ++position) {
      const uint64_t min = mins_of[id][position];
      size_t b = HomeBucket(position, min);
      while (buckets[b].run != 0 &&
             (buckets[b].min != min || buckets[b].position != position)) {
        b = (b + 1) & mask;
      }
      if (buckets[b].run == 0) {
        buckets[b].min = min;
        buckets[b].position = position;
      }
      ++buckets[b].run;
      bucket_of[id * width + position] = static_cast<uint32_t>(b);
    }
  }
  // Runs in bucket order, each one count long.
  uint32_t offset = 0;
  for (Bucket& bucket : buckets) {
    if (bucket.run == 0) {
      bucket.run = kNoRun;
      continue;
    }
    const uint32_t count = bucket.run;
    bucket.run = static_cast<uint32_t>(run_begin.size());
    run_begin.push_back(offset);
    offset += count;
  }
  run_begin.push_back(offset);
  // Pass 2: fill the runs; ids arrive in ascending order.
  ids.resize(offset);
  std::vector<uint32_t> fill(run_begin.begin(), run_begin.end() - 1);
  for (size_t id = 0; id < columns.size(); ++id) {
    for (size_t position = 0; position < width; ++position) {
      const uint32_t run = buckets[bucket_of[id * width + position]].run;
      ids[fill[run]++] = static_cast<uint32_t>(id);
    }
  }
}

template <typename Hit>
void LshCandidateIndex::Segment::ForEachAgreement(
    const std::vector<uint64_t>& mins, Hit hit) const {
  if (buckets.empty()) return;
  const size_t mask = buckets.size() - 1;
  for (uint32_t position = 0; position < kDiscoverySignatureSize;
       ++position) {
    const uint64_t min = mins[position];
    for (size_t b = HomeBucket(position, min);; b = (b + 1) & mask) {
      const Bucket& bucket = buckets[b];
      if (bucket.run == kNoRun) break;
      if (bucket.min == min && bucket.position == position) {
        for (uint32_t i = run_begin[bucket.run]; i < run_begin[bucket.run + 1];
             ++i) {
          hit(ids[i]);
        }
        break;
      }
    }
  }
}

bool LshCandidateIndex::Indexes(const std::string& table) const {
  for (const Run& run : segments_) {
    auto it = run.segment->slot_of.find(table);
    if (it != run.segment->slot_of.end() && !run.removed[it->second]) {
      return true;
    }
  }
  return false;
}

Status LshCandidateIndex::Validate(const RegisteredTable& entry) const {
  const std::string& table_name = entry.table.name();
  if (Indexes(table_name)) {
    return Status::InvalidArgument("LshCandidateIndex: table '" + table_name +
                                   "' is already indexed");
  }
  std::set<std::string> columns;
  for (const ColumnDiscoveryArtifact& c : entry.artifact->columns) {
    if (c.sketch.signature.mins().size() != kDiscoverySignatureSize) {
      return Status::InvalidArgument(
          "LshCandidateIndex: sketch width " +
          std::to_string(c.sketch.signature.mins().size()) + " of '" +
          table_name + "' does not match signature size " +
          std::to_string(kDiscoverySignatureSize));
    }
    if (!columns.insert(c.name).second) {
      return Status::InvalidArgument("LshCandidateIndex: duplicate column '" +
                                     c.name + "' in table '" + table_name +
                                     "'");
    }
  }
  return Status::OK();
}

LshCandidateIndex::Run LshCandidateIndex::Band(std::vector<Slot> slots) {
  auto segment = std::make_shared<Segment>();
  for (Slot& slot : slots) {
    const size_t slot_index = segment->slots.size();
    for (const std::string& token : slot.tokens) {
      segment->token_slots[token].insert(slot_index);
    }
    segment->slot_of[slot.table] = slot_index;
    segment->slots.push_back(std::move(slot));
  }
  banded_entries_ += segment->slots.size();
  segment->BuildPostings();
  Run run;
  run.removed.assign(segment->slots.size(), 0);
  run.segment = std::move(segment);
  return run;
}

LshCandidateIndex::Run LshCandidateIndex::Rebuild(
    const std::vector<const Run*>& runs) {
  std::vector<Slot> live;
  for (const Run* run : runs) {
    for (size_t i = 0; i < run->segment->slots.size(); ++i) {
      if (!run->removed[i]) live.push_back(run->segment->slots[i]);
    }
  }
  return Band(std::move(live));
}

LshCandidateIndex::Slot LshCandidateIndex::SlotFor(
    const RegisteredTable& entry) {
  Slot slot;
  slot.table = entry.table.name();
  slot.registration = entry.registration;
  slot.artifact = entry.artifact;
  std::set<std::string> tokens;
  for (const std::vector<std::string>& column_tokens : entry.name_tokens) {
    tokens.insert(column_tokens.begin(), column_tokens.end());
  }
  slot.tokens.assign(tokens.begin(), tokens.end());
  return slot;
}

Status LshCandidateIndex::Add(const RegisteredTable& entry) {
  // Validate-then-commit: once this passes, banding cannot fail.
  VALENTINE_RETURN_NOT_OK(Validate(entry));
  segments_.push_back(Band({SlotFor(entry)}));
  Merge();
  return Status::OK();
}

Status LshCandidateIndex::AddAll(const TableRepository& repository) {
  std::vector<Slot> slots;
  for (size_t i = 0; i < repository.size(); ++i) {
    // Repository names are unique, so checking each entry against the
    // existing segments validates the whole batch.
    VALENTINE_RETURN_NOT_OK(Validate(repository.entry(i)));
    slots.push_back(SlotFor(repository.entry(i)));
  }
  if (slots.empty()) return Status::OK();
  segments_.push_back(Band(std::move(slots)));
  Merge();
  return Status::OK();
}

Status LshCandidateIndex::Remove(const RegisteredTable& entry) {
  const std::string& table_name = entry.table.name();
  for (size_t r = segments_.size(); r-- > 0;) {
    Run& run = segments_[r];
    auto it = run.segment->slot_of.find(table_name);
    if (it == run.segment->slot_of.end() || run.removed[it->second] ||
        run.segment->slots[it->second].registration != entry.registration) {
      continue;
    }
    run.removed[it->second] = 1;
    ++run.removed_count;
    CompactIfHalfRemoved(r);
    Merge();
    return Status::OK();
  }
  return Status::NotFound("LshCandidateIndex: table '" + table_name +
                          "' is not indexed");
}

void LshCandidateIndex::CompactIfHalfRemoved(size_t r) {
  Run& run = segments_[r];
  if (2 * run.removed_count < run.segment->slots.size()) return;
  if (run.live() == 0) {
    segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(r));
  } else {
    run = Rebuild({&run});
  }
}

void LshCandidateIndex::Merge() {
  // Merge the newest segments into the oldest one that is no larger
  // than all newer segments together. Afterwards every segment is
  // larger than everything newer, so there are at most floor(log2 N)+1.
  size_t newer = 0;
  size_t oldest_violation = segments_.size();
  for (size_t r = segments_.size(); r-- > 0;) {
    if (r + 1 < segments_.size() && segments_[r].live() <= newer) {
      oldest_violation = r;
    }
    newer += segments_[r].live();
  }
  if (oldest_violation == segments_.size()) return;
  std::vector<const Run*> runs;
  for (size_t r = oldest_violation; r < segments_.size(); ++r) {
    runs.push_back(&segments_[r]);
  }
  Run merged = Rebuild(runs);
  segments_.resize(oldest_violation);
  segments_.push_back(std::move(merged));
}

std::vector<LshCandidateIndex::SegmentStats> LshCandidateIndex::Segments()
    const {
  std::vector<SegmentStats> out;
  for (const Run& run : segments_) {
    out.push_back({run.segment->slots.size(), run.removed_count});
  }
  return out;
}

RetrievedCandidates LshCandidateIndex::Retrieve(
    const Table& query, DiscoveryMode mode,
    const TableRepository& repository) const {
  RetrievedCandidates out;
  out.index = Name();
  // A hit nominates its table only while this index has not removed it
  // and the repository still maps the name to the entry that was banded.
  auto nominate = [&](const Run& run, size_t slot) {
    if (run.removed[slot]) return;
    const Slot& banded = run.segment->slots[slot];
    if (out.tables.count(banded.table) != 0) return;
    std::optional<size_t> position = repository.PositionOf(banded.table);
    if (position.has_value() &&
        repository.entry(*position).registration == banded.registration) {
      out.tables.insert(banded.table);
    }
  };
  // Probes count agreeing signature slots per column id; the ids
  // touched are reset after each probe.
  size_t most_columns = 0;
  for (const Run& run : segments_) {
    most_columns = std::max(most_columns, run.segment->columns.size());
  }
  std::vector<uint32_t> agree(most_columns, 0);
  std::vector<uint32_t> touched;
  // Empty value sets never band, so a query whose every column sketches
  // empty is invisible to this index. For value channels that is a
  // degraded query, not an empty answer.
  bool any_nonempty_column = false;
  for (const Column& c : query.columns()) {
    const std::unordered_set<std::string> values = c.DistinctStringSet();
    if (!values.empty()) {
      any_nonempty_column = true;
      const LazoSketch sketch =
          LazoSketch::Build(values, kDiscoverySignatureSize);
      // Joinable: containment-filtered. Unionable: every slot-level
      // collision (the recall end of the S-curve) — unionable columns
      // share values but rarely whole domains, so Jaccard banding's
      // ~0.7 threshold would miss most of them.
      for (const Run& run : segments_) {
        const Segment& segment = *run.segment;
        segment.ForEachAgreement(sketch.signature.mins(), [&](uint32_t id) {
          if (agree[id]++ == 0) touched.push_back(id);
        });
        for (uint32_t id : touched) {
          const double jaccard =
              static_cast<double>(agree[id]) /
              static_cast<double>(kDiscoverySignatureSize);
          agree[id] = 0;
          const Segment::PostedColumn& column = segment.columns[id];
          if (mode == DiscoveryMode::kJoinable &&
              EstimateLazoFromJaccard(jaccard, sketch.cardinality,
                                      column.cardinality)
                      .containment_a_in_b < options_.min_containment) {
            continue;
          }
          nominate(run, column.slot);
        }
        touched.clear();
      }
    }
    if (mode == DiscoveryMode::kUnionable && options_.union_name_candidates) {
      for (const std::string& token : TokenizeIdentifier(c.name())) {
        for (const Run& run : segments_) {
          auto it = run.segment->token_slots.find(token);
          if (it == run.segment->token_slots.end()) continue;
          for (size_t slot : it->second) nominate(run, slot);
        }
      }
    }
  }
  // With name postings active a unionable query is never value-blind
  // *and* name-blind at once, so only the pure-value channels degrade.
  const bool value_only = mode == DiscoveryMode::kJoinable ||
                          !options_.union_name_candidates;
  if (!any_nonempty_column && value_only) {
    return FallbackToExhaustive(repository, Name(), "empty-query-columns");
  }
  return out;
}

Status ExhaustiveCandidateIndex::Add(const RegisteredTable& entry) {
  (void)entry;
  return Status::OK();
}

Status ExhaustiveCandidateIndex::Remove(const RegisteredTable& entry) {
  (void)entry;
  return Status::OK();
}

RetrievedCandidates ExhaustiveCandidateIndex::Retrieve(
    const Table& query, DiscoveryMode mode,
    const TableRepository& repository) const {
  (void)query;
  (void)mode;
  RetrievedCandidates out;
  out.index = Name();
  for (size_t i = 0; i < repository.size(); ++i) {
    out.tables.insert(repository.entry(i).table.name());
  }
  return out;
}

}  // namespace valentine
