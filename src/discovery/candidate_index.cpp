#include "discovery/candidate_index.h"

#include <optional>
#include <unordered_set>
#include <utility>

#include "text/tokenizer.h"

namespace valentine {

namespace {

constexpr char kKeySeparator = '\x1f';

std::string ColumnKey(const std::string& table, const std::string& column) {
  return table + kKeySeparator + column;
}

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

LshCandidateIndex::LshCandidateIndex(Options options)
    : options_(options), tail_(options_.lsh) {}

bool LshCandidateIndex::Indexes(const std::string& table) const {
  if (tail_.slot_of.count(table) != 0) return true;
  for (const Run& run : sealed_) {
    auto it = run.segment->slot_of.find(table);
    if (it != run.segment->slot_of.end() && !run.removed[it->second]) {
      return true;
    }
  }
  return false;
}

void LshCandidateIndex::Band(Segment* segment, Slot slot) {
  const size_t slot_index = segment->slots.size();
  for (const ColumnDiscoveryArtifact& c : slot.artifact->columns) {
    // Add validated this slot's widths and column names, and no live
    // table of this name is banded anywhere, so the key is fresh and
    // takes the next id.
    Status added =
        segment->index.AddSketch(ColumnKey(slot.table, c.name), c.sketch);
    (void)added;
    segment->slot_of_id.push_back(slot_index);
  }
  for (const std::string& token : slot.tokens) {
    segment->token_slots[token].insert(slot_index);
  }
  segment->slot_of[slot.table] = slot_index;
  segment->slots.push_back(std::move(slot));
  ++banded_entries_;
}

LshCandidateIndex::Run LshCandidateIndex::Rebuild(
    const std::vector<const Run*>& runs) {
  auto segment = std::make_shared<Segment>(options_.lsh);
  for (const Run* run : runs) {
    for (size_t i = 0; i < run->segment->slots.size(); ++i) {
      if (!run->removed[i]) Band(segment.get(), run->segment->slots[i]);
    }
  }
  Run rebuilt;
  rebuilt.removed.assign(segment->slots.size(), 0);
  rebuilt.segment = std::move(segment);
  return rebuilt;
}

Status LshCandidateIndex::Add(const RegisteredTable& entry) {
  const std::string& table_name = entry.table.name();
  if (Indexes(table_name)) {
    return Status::InvalidArgument("LshCandidateIndex: table '" + table_name +
                                   "' is already indexed");
  }
  // Validate-then-commit: once these pass, banding cannot fail.
  std::set<std::string> columns;
  for (const ColumnDiscoveryArtifact& c : entry.artifact->columns) {
    if (c.sketch.signature.mins().size() != signature_size()) {
      return Status::InvalidArgument(
          "LshCandidateIndex: sketch width " +
          std::to_string(c.sketch.signature.mins().size()) + " of '" +
          table_name + "' does not match signature size " +
          std::to_string(signature_size()));
    }
    if (!columns.insert(c.name).second) {
      return Status::InvalidArgument("LshCandidateIndex: duplicate column '" +
                                     c.name + "' in table '" + table_name +
                                     "'");
    }
  }
  Slot slot;
  slot.table = table_name;
  slot.registration = entry.registration;
  slot.artifact = entry.artifact;
  std::set<std::string> tokens;
  for (const std::vector<std::string>& column_tokens : entry.name_tokens) {
    tokens.insert(column_tokens.begin(), column_tokens.end());
  }
  slot.tokens.assign(tokens.begin(), tokens.end());
  Band(&tail_, std::move(slot));
  return Status::OK();
}

Status LshCandidateIndex::Remove(const RegisteredTable& entry) {
  const std::string& table_name = entry.table.name();
  auto tail_it = tail_.slot_of.find(table_name);
  if (tail_it != tail_.slot_of.end() &&
      tail_.slots[tail_it->second].registration == entry.registration) {
    Slot& slot = tail_.slots[tail_it->second];
    for (const ColumnDiscoveryArtifact& c : slot.artifact->columns) {
      VALENTINE_RETURN_NOT_OK(
          tail_.index.Remove(ColumnKey(table_name, c.name)));
    }
    for (const std::string& token : slot.tokens) {
      auto it = tail_.token_slots.find(token);
      if (it == tail_.token_slots.end()) continue;
      it->second.erase(tail_it->second);
      if (it->second.empty()) tail_.token_slots.erase(it);
    }
    tail_.slot_of.erase(tail_it);
    // The slot stays (slot numbers are positions) but is never banded
    // again, so it need not keep the artifact alive.
    slot.artifact.reset();
    slot.tokens.clear();
    return Status::OK();
  }
  for (size_t r = sealed_.size(); r-- > 0;) {
    Run& run = sealed_[r];
    auto it = run.segment->slot_of.find(table_name);
    if (it == run.segment->slot_of.end() || run.removed[it->second] ||
        run.segment->slots[it->second].registration != entry.registration) {
      continue;
    }
    run.removed[it->second] = 1;
    ++run.removed_count;
    CompactIfHalfRemoved(r);
    return Status::OK();
  }
  return Status::NotFound("LshCandidateIndex: table '" + table_name +
                          "' is not indexed");
}

void LshCandidateIndex::CompactIfHalfRemoved(size_t r) {
  Run& run = sealed_[r];
  if (2 * run.removed_count < run.segment->slots.size()) return;
  if (run.live() == 0) {
    sealed_.erase(sealed_.begin() + static_cast<ptrdiff_t>(r));
  } else {
    run = Rebuild({&run});
  }
}

void LshCandidateIndex::Seal() {
  if (!tail_.slots.empty()) {
    // Tables removed from the tail keep their (posting-free) slots;
    // frozen, they count as removed like any lazy removal.
    Run frozen;
    frozen.removed.assign(tail_.slots.size(), 1);
    for (const auto& [table, slot] : tail_.slot_of) frozen.removed[slot] = 0;
    frozen.removed_count = tail_.slots.size() - tail_.slot_of.size();
    frozen.segment = std::make_shared<const Segment>(std::move(tail_));
    tail_ = Segment(options_.lsh);
    sealed_.push_back(std::move(frozen));
    CompactIfHalfRemoved(sealed_.size() - 1);
  }
  // Merge the newest segments into the oldest one that is no larger
  // than all newer segments together. Afterwards every segment is
  // larger than everything newer, so there are at most floor(log2 N)+1.
  size_t newer = 0;
  size_t oldest_violation = sealed_.size();
  for (size_t r = sealed_.size(); r-- > 0;) {
    if (r + 1 < sealed_.size() && sealed_[r].live() <= newer) {
      oldest_violation = r;
    }
    newer += sealed_[r].live();
  }
  if (oldest_violation == sealed_.size()) return;
  std::vector<const Run*> runs;
  for (size_t r = oldest_violation; r < sealed_.size(); ++r) {
    runs.push_back(&sealed_[r]);
  }
  Run merged = Rebuild(runs);
  sealed_.resize(oldest_violation);
  sealed_.push_back(std::move(merged));
}

std::vector<LshCandidateIndex::SegmentStats> LshCandidateIndex::Segments()
    const {
  std::vector<SegmentStats> out;
  for (const Run& run : sealed_) {
    out.push_back({run.segment->slots.size(), run.removed_count, true});
  }
  if (!tail_.slots.empty()) {
    out.push_back({tail_.slots.size(),
                   tail_.slots.size() - tail_.slot_of.size(), false});
  }
  return out;
}

RetrievedCandidates LshCandidateIndex::Retrieve(
    const Table& query, DiscoveryMode mode,
    const TableRepository& repository) const {
  RetrievedCandidates out;
  out.index = Name();
  // Every segment with its removal marks (none for the tail: a tail
  // removal erases the table's postings outright).
  std::vector<std::pair<const Segment*, const std::vector<uint8_t>*>>
      segments;
  for (const Run& run : sealed_) {
    segments.emplace_back(run.segment.get(), &run.removed);
  }
  if (!tail_.slots.empty()) segments.emplace_back(&tail_, nullptr);
  // A hit nominates its table only while this index has not removed it
  // and the repository still maps the name to the entry that was banded.
  auto nominate = [&](const Segment& segment,
                      const std::vector<uint8_t>* removed, size_t slot) {
    if (removed != nullptr && (*removed)[slot]) return;
    const Slot& banded = segment.slots[slot];
    if (out.tables.count(banded.table) != 0) return;
    std::optional<size_t> position = repository.PositionOf(banded.table);
    if (position.has_value() &&
        repository.entry(*position).registration == banded.registration) {
      out.tables.insert(banded.table);
    }
  };
  // Empty value sets never band (scaling/lsh_index.h), so a query whose
  // every column sketches empty is invisible to this index. For value
  // channels that is a degraded query, not an empty answer.
  bool any_nonempty_column = false;
  for (const Column& c : query.columns()) {
    const std::unordered_set<std::string> values = c.DistinctStringSet();
    if (!values.empty()) {
      any_nonempty_column = true;
      const LazoSketch sketch = LazoSketch::Build(values, signature_size());
      for (const auto& [segment, removed] : segments) {
        // Joinable: containment-filtered. Unionable: every slot-level
        // collision (the recall end of the S-curve) — unionable columns
        // share values but rarely whole domains, so Jaccard banding's
        // ~0.7 threshold would miss most of them.
        const std::vector<size_t> ids =
            mode == DiscoveryMode::kJoinable
                ? segment->index.ContainmentIds(sketch,
                                                options_.min_containment)
                : segment->index.ContainmentCandidateIds(sketch);
        for (size_t id : ids) {
          nominate(*segment, removed, segment->slot_of_id[id]);
        }
      }
    }
    if (mode == DiscoveryMode::kUnionable && options_.union_name_candidates) {
      for (const std::string& token : TokenizeIdentifier(c.name())) {
        for (const auto& [segment, removed] : segments) {
          auto it = segment->token_slots.find(token);
          if (it == segment->token_slots.end()) continue;
          for (size_t slot : it->second) nominate(*segment, removed, slot);
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
