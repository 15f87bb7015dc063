#ifndef VALENTINE_DISCOVERY_CANDIDATE_INDEX_H_
#define VALENTINE_DISCOVERY_CANDIDATE_INDEX_H_

/// \file candidate_index.h
/// Stage 1 of the staged discovery pipeline (DESIGN.md §14): candidate
/// nomination. A CandidateIndex maintains whatever per-table postings it
/// needs (fed Add/Remove as the repository mutates) and, per query,
/// nominates the table names worth scoring. Nomination is recall-biased
/// and never affects result *bytes* — every nominated candidate is
/// verified and scored by the Reranker — only which tables pay that
/// scoring cost.
///
/// Contract shared by all implementations (tested in
/// tests/discovery_candidate_index_test.cpp):
///  * Retrieve never nominates a name outside the repository, and never
///    duplicates (RetrievedCandidates::tables is a set).
///  * After Remove(entry), that table is never nominated again; after a
///    re-Add it is nominated as if fresh.
///  * A degraded query (the index cannot see it at all — e.g. every
///    query column sketches empty) sets `fallback` + `fallback_reason`
///    and nominates the whole repository rather than silently returning
///    nothing; the engine surfaces the event through
///    valentine_discovery_fallback_total.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/table.h"
#include "discovery/repository.h"
#include "discovery/types.h"

namespace valentine {

/// \brief Nominates candidate tables for a discovery query.
///
/// Thread-safety: Retrieve on a const index is safe concurrently;
/// Add/Remove must not race any other call on the same instance.
class CandidateIndex {
 public:
  virtual ~CandidateIndex() = default;

  /// Implementation name, surfaced in explain output ("lsh",
  /// "exhaustive", ...).
  virtual std::string Name() const = 0;

  /// Indexes a newly registered table's postings.
  [[nodiscard]] virtual Status Add(const RegisteredTable& entry) = 0;

  /// Erases a removed table's postings.
  [[nodiscard]] virtual Status Remove(const RegisteredTable& entry) = 0;

  /// Nominates candidate table names for `query` under `mode`.
  virtual RetrievedCandidates Retrieve(
      const Table& query, DiscoveryMode mode,
      const TableRepository& repository) const = 0;
};

/// \brief MinHash-LSH nomination: joinable queries probe per-column
/// containment (LSH Ensemble style), unionable queries combine
/// slot-level containment candidates with column-name token postings.
/// Scoring cost is bounded by the candidates actually nominated, not
/// the repository size.
///
/// Storage is log-structured (the Bentley–Saxe logarithmic method).
/// Nomination is decomposable: the union of what several smaller
/// indexes nominate is exactly what one index over all their tables
/// would nominate. So the index is a list of immutable segments, and
/// each keeps name-token postings next to its value postings. Every
/// public mutation leaves the index sealed:
///  * Add bands a table into a new one-table segment, then merges every
///    segment that is no larger than all newer segments together with
///    them, rebuilding one segment from their live tables. AddAll bands
///    a whole repository into one new segment and merges the same way
///    (the two-argument DiscoveryEngine::FromRepository bands each
///    table once, into one segment).
///  * Remove is lazy: the table is only marked removed in this copy,
///    the segment is rebuilt from its live tables once half of them are
///    removed, and then the same merge rule runs.
///  * A segment's value postings are one flat open-addressed table:
///    (signature slot, min value) -> a run of 32-bit column ids in one
///    array, plus id -> (table slot, set cardinality). It holds no band
///    buckets, key strings or sketch copies, and building it allocates
///    per segment, not per posting. A probe counts, per column, the
///    signature slots that agree with the query, which is exactly
///    EstimateJaccard's numerator, so it nominates the very columns a
///    scan of every sketch would (unionable: any agreeing slot;
///    joinable: Lazo-estimated containment >= min_containment), without
///    reading the candidates' sketches.
///  * Copies share segments (`shared_ptr<const>`); only the per-segment
///    removal marks are copied. That is what lets a serve snapshot
///    apply a one-table delta to a copy of the previous snapshot's
///    index instead of re-banding the repository.
///  * Retrieve sketches each query column once and probes every
///    segment with that sketch. A hit nominates its table only while
///    the repository it is given still maps that name to the very entry
///    the segment banded (same RegisteredTable::registration), so a
///    stale posting never surfaces a removed or replaced table.
///
/// Cost model, N = live tables:
///  * banding is amortised O(log N) table entries per mutation. A merge
///    moves each table into a segment with at least twice the live
///    tables of the one it left, and a compaction re-bands no more
///    tables than the removals that triggered it. Direct registration
///    (DiscoveryEngine::AddTable) pays this too: 300 adds band 1,570
///    entries, the same as the serving registry;
///  * each segment holds more live tables than all newer segments
///    together, so a query column probes at most floor(log2 N) + 1
///    segments (4 at 300 tables registered one by one: one per set bit
///    of 300), each with one table lookup per signature slot.
class LshCandidateIndex : public CandidateIndex {
 public:
  struct Options {
    /// Minimum estimated containment for a query column to nominate a
    /// candidate in joinable mode.
    double min_containment = 0.3;
    /// In unionable mode, also nominate tables sharing a column-name
    /// token with the query, so value-disjoint but schema-aligned
    /// tables (which the value-based index cannot see) stay reachable.
    bool union_name_candidates = true;
  };

  /// One segment's accounting (see Segments()).
  struct SegmentStats {
    size_t banded = 0;  ///< table entries the segment holds postings for
    size_t removed = 0; ///< of which removed since
  };

  explicit LshCandidateIndex(Options options);

  std::string Name() const override { return "lsh"; }

  const Options& options() const { return options_; }

  /// Bands `entry` into a new segment and merges. Fails with
  /// kInvalidArgument while a table of the same name is still indexed,
  /// or when a sketch's width is not kDiscoverySignatureSize.
  [[nodiscard]] Status Add(const RegisteredTable& entry) override;
  /// Add for every entry of `repository` at once, into one segment.
  /// Validates every entry before banding any.
  [[nodiscard]] Status AddAll(const TableRepository& repository);
  /// kNotFound unless this very entry (name and registration) is
  /// indexed and not yet removed.
  [[nodiscard]] Status Remove(const RegisteredTable& entry) override;

  RetrievedCandidates Retrieve(const Table& query, DiscoveryMode mode,
                               const TableRepository& repository)
      const override;

  /// Every segment a query probes, oldest first.
  std::vector<SegmentStats> Segments() const;

  /// Table entries banded so far by this index and the copies it
  /// descends from: adds, merges and compactions alike.
  uint64_t banded_entries() const { return banded_entries_; }

 private:
  /// What a segment keeps per banded table: enough to verify a hit
  /// against the repository and to re-band the table into a merged
  /// segment without the RegisteredTable itself.
  struct Slot {
    std::string table;
    uint64_t registration = 0;
    std::shared_ptr<const TableDiscoveryArtifact> artifact;
    std::vector<std::string> tokens;  ///< distinct column-name tokens
  };
  /// An immutable segment once BuildPostings returns, shared by every
  /// copy of the index.
  struct Segment {
    /// One banded column (a non-empty value set).
    struct PostedColumn {
      uint32_t slot = 0;
      size_t cardinality = 0;
    };
    /// One (signature slot, min value) key of the open-addressed table;
    /// `run` indexes run_begin, or is kNoRun in an empty bucket.
    struct Bucket {
      uint64_t min = 0;
      uint32_t position = 0;
      uint32_t run = 0;
    };
    static constexpr uint32_t kNoRun = 0xffffffffu;

    /// Lays out the value postings of every slot. Two counting passes
    /// over (column, signature slot).
    void BuildPostings();
    /// Calls `hit(column id)` once per signature slot at which that
    /// column's min equals `mins` (width kDiscoverySignatureSize).
    template <typename Hit>
    void ForEachAgreement(const std::vector<uint64_t>& mins, Hit hit) const;
    size_t HomeBucket(uint32_t position, uint64_t min) const;

    std::vector<Slot> slots;          ///< banding order
    /// Table name -> its slot.
    std::map<std::string, size_t> slot_of;
    /// Column-name token -> slots of tables owning such a column; the
    /// value-blind half of unionable nomination. Ordered containers keep
    /// iteration deterministic.
    std::map<std::string, std::set<size_t>> token_slots;
    std::vector<PostedColumn> columns;  ///< column id -> its table
    std::vector<Bucket> buckets;        ///< power-of-two size, or empty
    unsigned shift = 0;                 ///< 64 - log2(buckets.size())
    std::vector<uint32_t> run_begin;    ///< run -> first index into ids
    std::vector<uint32_t> ids;          ///< column ids, ascending per run
  };
  /// A segment with this index's removal marks.
  struct Run {
    std::shared_ptr<const Segment> segment;
    std::vector<uint8_t> removed;  ///< slot -> removed?
    size_t removed_count = 0;
    size_t live() const { return segment->slots.size() - removed_count; }
  };

  /// True while some segment still indexes a live table named `table`.
  bool Indexes(const std::string& table) const;
  /// Add's checks: a fresh name, the index's sketch width and distinct
  /// column names.
  Status Validate(const RegisteredTable& entry) const;
  static Slot SlotFor(const RegisteredTable& entry);
  /// One segment over `slots`, in order; counts a banding per slot.
  Run Band(std::vector<Slot> slots);
  /// One segment rebuilt from the live slots of `runs`, in order.
  Run Rebuild(const std::vector<const Run*>& runs);
  /// Compaction: once half of segments_[r] is removed, rebuilds it from
  /// its live tables, or drops it when none are left.
  void CompactIfHalfRemoved(size_t r);
  /// Merges the newest segments into the oldest one that is no larger
  /// than all newer segments together, restoring the segment invariant.
  void Merge();

  Options options_;
  std::vector<Run> segments_;  ///< oldest first
  uint64_t banded_entries_ = 0;
};

/// \brief Reference nomination: every repository table. Maintains no
/// postings; the A/B baseline LSH nomination is checked against
/// (bench/bench_repository.cpp), and the right choice for tiny
/// repositories where pruning buys nothing.
class ExhaustiveCandidateIndex : public CandidateIndex {
 public:
  std::string Name() const override { return "exhaustive"; }

  [[nodiscard]] Status Add(const RegisteredTable& entry) override;
  [[nodiscard]] Status Remove(const RegisteredTable& entry) override;

  RetrievedCandidates Retrieve(const Table& query, DiscoveryMode mode,
                               const TableRepository& repository)
      const override;
};

}  // namespace valentine

#endif  // VALENTINE_DISCOVERY_CANDIDATE_INDEX_H_
