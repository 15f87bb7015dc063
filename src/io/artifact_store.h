#ifndef VALENTINE_IO_ARTIFACT_STORE_H_
#define VALENTINE_IO_ARTIFACT_STORE_H_

/// \file artifact_store.h
/// Persistent, versioned store of per-table discovery artifacts.
///
/// The discovery engine's repository-scale story (ROADMAP item 1)
/// requires that registering a table the repository has already seen —
/// in a previous process, or in a previous copy-on-write snapshot of
/// the serving registry — does not pay the sketch build again. This
/// store holds one artifact per *table content fingerprint*
/// (matchers/artifact_cache.h): the table's Lazo sketches, one per
/// column, ready for the discovery index to band. Nothing else is
/// stored: every matcher artifact is prepared from the table itself.
///
/// Contracts:
///  * Serialization is canonical and byte-stable: the same artifact
///    always serializes to the same bytes, across processes and
///    platforms (fixed little-endian encoding). Round-tripping is
///    byte-identical.
///  * Files are versioned ("VDA1" magic + u32 version, now 3); parsing
///    a truncated, foreign, or other-versioned file yields ParseError,
///    never garbage, and the table is rebuilt at registration.
///  * Put is atomic at the filesystem level (write temp + rename), so
///    a crash mid-write never leaves a half-written artifact behind.
///  * The store is thread-safe; its mutex (LockRank::kArtifactStore)
///    ranks above the serve registry lock so the serving layer may
///    consult the store while holding its registry mutex.
///  * Loaded artifacts are immutable and shared via shared_ptr; a
///    process-local cache makes repeat Gets (the serve copy-on-write
///    rebuild path) free of both IO and parsing.

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
#include "scaling/lazo.h"

namespace valentine {

/// One column's persisted discovery state: its name and Lazo sketch
/// (MinHash signature + cardinality), ready to be banded into the
/// discovery index without touching the column's values.
struct ColumnDiscoveryArtifact {
  std::string name;
  LazoSketch sketch;
};

/// Everything the discovery engine derives from one table, keyed by the
/// table's content fingerprint.
struct TableDiscoveryArtifact {
  uint64_t fingerprint = 0;
  std::string table_name;
  size_t signature_size = 0;  ///< MinHash width the sketches were built with
  std::vector<ColumnDiscoveryArtifact> columns;
};

/// Derives a table's artifact from scratch: fingerprint and one Lazo
/// sketch per column, built from the column's distinct value set at
/// `signature_size`. Pure function of its arguments.
///
/// `fingerprint` is recorded as given; a caller that already hashed the
/// table passes it (the repository records 0 for a store-less entry),
/// and by default the table is fingerprinted here.
TableDiscoveryArtifact BuildDiscoveryArtifact(
    const Table& table, size_t signature_size,
    std::optional<uint64_t> fingerprint = std::nullopt);

/// Canonical byte-stable serialization (see file comment for the
/// stability contract).
std::string SerializeDiscoveryArtifact(const TableDiscoveryArtifact& artifact);

/// Inverse of SerializeDiscoveryArtifact. ParseError on bad magic,
/// unsupported version, truncation, trailing bytes, or a column whose
/// signature width differs from the header's `signature_size`.
Result<TableDiscoveryArtifact> ParseDiscoveryArtifact(
    const std::string& bytes);

/// \brief Directory-backed store: one `<16-hex-fingerprint>.vda` file
/// per artifact, plus a process-local immutable cache.
class ArtifactStore {
 public:
  /// Opens (and creates, if needed) the store rooted at `directory`.
  explicit ArtifactStore(std::string directory);
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  const std::string& directory() const { return directory_; }

  /// Persists the artifact (write-through: disk then memory cache).
  /// Overwrites any previous artifact with the same fingerprint.
  [[nodiscard]] Status Put(
      std::shared_ptr<const TableDiscoveryArtifact> artifact) EXCLUDES(mu_);

  /// Fetches by fingerprint: memory cache first, then disk (parsing and
  /// caching on hit). NotFound when the fingerprint is absent; IOError /
  /// ParseError on unreadable or corrupt files.
  Result<std::shared_ptr<const TableDiscoveryArtifact>> Get(
      uint64_t fingerprint) const EXCLUDES(mu_);

  /// True when the fingerprint is present in memory or on disk.
  bool Contains(uint64_t fingerprint) const EXCLUDES(mu_);

  /// Removes the artifact from cache and disk. OK when absent.
  [[nodiscard]] Status Remove(uint64_t fingerprint) EXCLUDES(mu_);

  /// Fingerprints of every artifact on disk, sorted ascending.
  std::vector<uint64_t> List() const;

  /// Drops the in-memory cache (cold-restart simulation for tests;
  /// subsequent Gets re-read from disk).
  void DropMemoryCache() EXCLUDES(mu_);

  size_t memory_cache_size() const EXCLUDES(mu_);

 private:
  std::string PathFor(uint64_t fingerprint) const;

  const std::string directory_;  // lint:allow(guarded-by-coverage) immutable
  mutable Mutex mu_{LockRank::kArtifactStore, "ArtifactStore"};
  mutable std::map<uint64_t, std::shared_ptr<const TableDiscoveryArtifact>>
      cache_ GUARDED_BY(mu_);
};

}  // namespace valentine

#endif  // VALENTINE_IO_ARTIFACT_STORE_H_
