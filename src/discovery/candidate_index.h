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
#include "scaling/lsh_index.h"

namespace valentine {

/// \brief Nominates candidate tables for a discovery query.
///
/// Thread-safety: Retrieve on a const index is safe concurrently;
/// Add/Remove (and LshCandidateIndex::Seal) must not race any other
/// call on the same instance.
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
/// would nominate. So the index is a list of sealed segments plus one
/// unsealed tail, and each keeps name-token postings next to its value
/// postings:
///  * Add bands a table into the tail, in place. The tail's value
///    postings are a mutable LshIndex. An index that is never sealed
///    (DiscoveryEngine::AddTable, the two-argument FromRepository)
///    bands every table once, into that one segment.
///  * Seal freezes the tail into a sealed segment, then merges every
///    segment that is no larger than all newer segments together with
///    them, rebuilding one segment from their live tables. Freezing
///    re-lays the tail's postings out; it is not a banding.
///  * A sealed segment never changes, so its value postings are one
///    flat open-addressed table: (signature slot, min value) -> a run
///    of 32-bit column ids in one array, plus id -> (table slot, set
///    cardinality). It holds no LshIndex, band buckets, key strings or
///    sketch copies, and building it allocates per segment, not per
///    posting. A probe counts, per column, the signature slots that
///    agree with the query, which is exactly EstimateJaccard's
///    numerator, so it nominates the very ids LshIndex's
///    ContainmentCandidateIds / ContainmentIds would, without reading
///    the candidates' sketches.
///  * Copies share sealed segments (`shared_ptr<const>`); only the tail
///    and the per-segment removal marks are copied. That is what lets
///    a serve snapshot apply a one-table delta to a copy of the
///    previous snapshot's index instead of re-banding the repository.
///  * Remove erases a tail table's postings in place. On a sealed
///    segment it is lazy: the table is only marked removed, and the
///    segment is rebuilt from its live tables once half of them are
///    removed.
///  * Retrieve sketches each query column once and probes every
///    segment with that sketch. A hit nominates its table only while
///    the repository it is given still maps that name to the very entry
///    the segment banded (same RegisteredTable::registration), so a
///    stale posting never surfaces a removed or replaced table.
///
/// Cost model, N = live tables, every mutation followed by Seal:
///  * banding is amortised O(log N) table entries per mutation. A merge
///    moves each table into a segment with at least twice the live
///    tables of the one it left, and a compaction re-bands no more
///    tables than the removals that triggered it;
///  * after every Seal each segment holds more live tables than all
///    newer segments together, so a query column probes at most
///    floor(log2 N) + 1 segments (4 at 300 tables registered one by
///    one: one per set bit of 300), each with one table lookup per
///    signature slot.
class LshCandidateIndex : public CandidateIndex {
 public:
  struct Options {
    LshOptions lsh;
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
    size_t removed = 0; ///< of which removed since (lazily, if sealed)
    bool sealed = false;
  };

  explicit LshCandidateIndex(Options options);

  std::string Name() const override { return "lsh"; }

  const Options& options() const { return options_; }

  /// MinHash signature width this index bands at; repository sketches
  /// must be built at the same width or Add fails.
  size_t signature_size() const { return tail_.index.signature_size(); }

  /// Bands `entry` into the tail. Fails with kInvalidArgument while a
  /// table of the same name is still indexed, or when a sketch's width
  /// is not signature_size().
  [[nodiscard]] Status Add(const RegisteredTable& entry) override;
  /// kNotFound unless this very entry (name and registration) is
  /// indexed and not yet removed.
  [[nodiscard]] Status Remove(const RegisteredTable& entry) override;

  /// Freezes the tail and restores the segment invariant by merging
  /// (see the class comment). A no-op on an index with nothing to do.
  void Seal();

  RetrievedCandidates Retrieve(const Table& query, DiscoveryMode mode,
                               const TableRepository& repository)
      const override;

  /// Every segment a query probes, oldest first; the tail, when it holds
  /// any table, comes last.
  std::vector<SegmentStats> Segments() const;

  /// Table entries banded so far by this index and the copies it
  /// descends from: tail adds, merges and compactions alike.
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
  /// The per-table half every segment keeps, sealed or not.
  struct Segment {
    std::vector<Slot> slots;          ///< banding order
    /// Table name -> the slot of its newest banding. Tail removals
    /// erase the name; sealed segments never change.
    std::map<std::string, size_t> slot_of;
    /// Column-name token -> slots of tables owning such a column; the
    /// value-blind half of unionable nomination. Ordered containers keep
    /// iteration deterministic.
    std::map<std::string, std::set<size_t>> token_slots;
  };
  /// The unsealed tail: value postings that take Add and Remove in
  /// place.
  struct Tail : Segment {
    explicit Tail(const LshOptions& lsh) : index(lsh) {}
    LshIndex index;  ///< keys are "<table>\x1f<column>"
    std::vector<size_t> slot_of_id;  ///< LshIndex id -> slot
  };
  /// A sealed segment: immutable once BuildPostings returns, and shared
  /// by every copy of the index.
  struct SealedSegment : Segment {
    /// One banded column (a non-empty value set of a live slot).
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

    /// Lays out the value postings of every slot that still holds its
    /// artifact (a frozen tail keeps removed tables' slots without
    /// one). Two counting passes over (column, signature slot).
    void BuildPostings(size_t signature_size);
    /// Calls `hit(column id)` once per signature slot at which that
    /// column's min equals `mins` (width signature_size).
    template <typename Hit>
    void ForEachAgreement(const std::vector<uint64_t>& mins, Hit hit) const;
    size_t HomeBucket(uint32_t position, uint64_t min) const;

    size_t width = 0;
    std::vector<PostedColumn> columns;  ///< column id -> its table
    std::vector<Bucket> buckets;        ///< power-of-two size, or empty
    unsigned shift = 0;                 ///< 64 - log2(buckets.size())
    std::vector<uint32_t> run_begin;    ///< run -> first index into ids
    std::vector<uint32_t> ids;          ///< column ids, ascending per run
  };
  /// A sealed segment with this index's removal marks.
  struct Run {
    std::shared_ptr<const SealedSegment> segment;
    std::vector<uint8_t> removed;  ///< slot -> removed?
    size_t removed_count = 0;
    size_t live() const { return segment->slots.size() - removed_count; }
  };

  /// True while some segment still indexes a live table named `table`.
  bool Indexes(const std::string& table) const;
  /// Records `slot` in `segment`'s per-table half and counts a banding.
  void Enroll(Segment* segment, Slot slot);
  /// Bands `slot` into the tail; the slot passed Add's validation.
  void Band(Slot slot);
  /// One sealed run rebuilt from the live slots of `runs`, in order.
  Run Rebuild(const std::vector<const Run*>& runs);
  /// Compaction: once half of sealed_[r] is removed, rebuilds it from
  /// its live tables, or drops it when none are left.
  void CompactIfHalfRemoved(size_t r);

  Options options_;
  std::vector<Run> sealed_;  ///< oldest first
  Tail tail_;
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
