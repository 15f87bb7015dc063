#ifndef VALENTINE_DISCOVERY_REPOSITORY_H_
#define VALENTINE_DISCOVERY_REPOSITORY_H_

/// \file repository.h
/// TableRepository — the state-owning layer of the staged discovery
/// pipeline (DESIGN.md §14). It owns the registered tables and
/// everything derived from them at registration time: per-column Lazo
/// sketches (as a TableDiscoveryArtifact) and identifier name tokens.
/// The ArtifactStore load/put path lives here: with a store attached,
/// AddTable resolves artifacts by table content fingerprint (skipping
/// the sketch build entirely on a hit) and persists freshly built ones
/// write-through.
///
/// Snapshot semantics: entries are `shared_ptr<const RegisteredTable>`s,
/// immutable apart from their prepared-artifact slot, so copying a
/// TableRepository is a cheap copy-on-write snapshot — the copy shares
/// every entry, and mutating either side never touches the other. This
/// is what makes the serving layer's per-mutation registry update O(1
/// new table) instead of O(repository): it clones the repository,
/// registers only the delta, and applies the same delta to a copy of
/// the segmented candidate index (discovery/candidate_index.h), never
/// re-fingerprinting, re-sketching, re-preparing, or touching the store
/// for tables already registered.
///
/// Thread-safety: const access is safe concurrently; AddTable /
/// RemoveTable must not race any other call on the same instance
/// (distinct snapshots are independent).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mutex.h"
#include "core/status.h"
#include "core/table.h"
#include "core/thread_annotations.h"
#include "io/artifact_store.h"
#include "matchers/prepared.h"
#include "obs/metrics.h"

namespace valentine {

/// \brief One registry entry's prepared matcher artifact
/// (matchers/prepared.h).
///
/// Empty until the first query that scores the entry installs what its
/// matcher's Prepare built; from then on every repository snapshot and
/// every engine over the entry share that artifact, and nothing drops
/// or replaces it. The artifact borrows the table its entry owns, so it
/// cannot outlive it, and it owns everything it derived, so it may
/// outlive the matcher that built it. Thread-safe: builds run outside
/// the lock and the first install wins.
class PreparedSlot {
 public:
  /// The installed artifact when a matcher with this Name() and
  /// PrepareKey() built it; nullptr otherwise.
  PreparedTablePtr Get(const std::string& family,
                       const std::string& prepare_key) const EXCLUDES(mu_);

  /// Installs `built` into an empty slot. Returns the artifact to score
  /// with: the installed one when it has `built`'s family and prepare
  /// key, else `built`, which then serves only the calling query.
  PreparedTablePtr Install(PreparedTablePtr built) EXCLUDES(mu_);

 private:
  mutable Mutex mu_{LockRank::kPreparedSlot, "PreparedSlot"};
  PreparedTablePtr artifact_ GUARDED_BY(mu_);
};

/// One registered table with everything the pipeline derives from it.
/// Immutable after construction except for `prepared`; shared across
/// repository snapshots and the engines built over them.
struct RegisteredTable {
  Table table;
  /// Process-unique registration number, never reused. A removed table
  /// and its re-registered replacement always differ here, even when
  /// the replacement is allocated where the old entry lived, so
  /// "is this still the entry I indexed?" never compares addresses.
  uint64_t registration = 0;
  /// Per-column sketches (always present; the fingerprint only when the
  /// artifact came from or went to a store).
  std::shared_ptr<const TableDiscoveryArtifact> artifact;
  /// Per-column identifier tokens, computed once here so queries never
  /// re-derive them.
  std::vector<std::vector<std::string>> name_tokens;
  /// The reranker's artifact for this table, built by the first query
  /// that scores it (discovery/rerank.h).
  mutable PreparedSlot prepared;
};

/// MinHash signature width of discovery sketches, and the only width
/// LshCandidateIndex bands: nomination probes single signature slots,
/// so no other LSH geometry reaches a query.
constexpr size_t kDiscoverySignatureSize = 128;

/// Repository configuration. All pointers are borrowed and optional.
struct RepositoryOptions {
  /// Persistent artifact store consulted/updated by AddTable.
  ArtifactStore* store = nullptr;
  /// Sink for valentine_discovery_store_total{event} accounting.
  MetricsRegistry* metrics = nullptr;
  /// MinHash signature width sketches are built at (LshCandidateIndex
  /// rejects any other).
  size_t signature_size = kDiscoverySignatureSize;
};

/// \brief Owns registered tables and their derived artifacts.
class TableRepository {
 public:
  explicit TableRepository(RepositoryOptions options = {});

  /// Copying is a cheap snapshot: entries are shared, mutations on
  /// either copy never affect the other.
  TableRepository(const TableRepository&) = default;
  TableRepository& operator=(const TableRepository&) = default;
  TableRepository(TableRepository&&) = default;
  TableRepository& operator=(TableRepository&&) = default;

  /// Registers a table: validates (duplicate table name, empty table,
  /// duplicate column names),
  /// resolves or builds its artifact, derives enrichment metadata, and
  /// appends the entry. Returns the new immutable entry.
  Result<std::shared_ptr<const RegisteredTable>> AddTable(Table table);

  /// Unregisters a table; kNotFound when absent. A persistent store
  /// keeps its artifact (keyed by content, re-adding stays free).
  Status RemoveTable(const std::string& name);

  size_t size() const { return entries_.size(); }
  bool Contains(const std::string& name) const {
    return index_by_name_.count(name) != 0;
  }

  /// Entry at registration position `i` (< size()).
  const RegisteredTable& entry(size_t i) const { return *entries_[i]; }

  /// Registration position of the table named `name`, or nullopt when
  /// absent. O(log N) through the name index, never a scan.
  std::optional<size_t> PositionOf(const std::string& name) const;

  /// Shared handle to the entry named `name`; nullptr when absent.
  std::shared_ptr<const RegisteredTable> Find(const std::string& name) const;

 private:
  Status Validate(const Table& table) const;

  RepositoryOptions options_;
  /// Registration order; each entry immutable and shared.
  std::vector<std::shared_ptr<const RegisteredTable>> entries_;
  /// Table name -> index into entries_ (ordered: deterministic).
  std::map<std::string, size_t> index_by_name_;
};

}  // namespace valentine

#endif  // VALENTINE_DISCOVERY_REPOSITORY_H_
