#ifndef VALENTINE_MATCHERS_ARTIFACT_CACHE_H_
#define VALENTINE_MATCHERS_ARTIFACT_CACHE_H_

/// \file artifact_cache.h
/// Build-once, serve-many cache of matcher artifacts: every family's
/// Prepare output per table, and its PreparePair output per table pair.
/// A campaign prepares each suite table once per (family, prepare key)
/// instead of once per (pair, config), and each pair's
/// configuration-independent work once per (family, prepare key)
/// instead of once per config. It is the campaign's only in-memory
/// cache and lives for one campaign call; discovery keeps each
/// repository table's artifact in its registry entry instead
/// (RegisteredTable::prepared).
///
/// Keying: entries are keyed by *value* — the content fingerprint and
/// name of each table (one for a table artifact, source then target for
/// a pair artifact), the family name, and the matcher's PrepareKey() —
/// never by address (the `pointer-cache-key` lint rule has no exception
/// in src/). Value keys make hits well-defined across table copies and
/// make the cache immune to allocator address reuse. The caller owns the
/// fingerprints: the campaign runners fingerprint each suite table once
/// per call and pass them to every lookup, so the cache never hashes a
/// table.
///
/// Contract: a cache hit must be byte-identical to an inline Prepare,
/// and every consumer falls back to the inline path unconditionally
/// when the cache declines (build failure, family mismatch) — the cache
/// can change wall-clock time, never report bytes. Artifacts borrow
/// their tables, so the cache must not outlive the tables it was fed.
///
/// Thread safety: GetOrPrepare is safe for concurrent callers. Builds
/// run outside the lock (Prepare can be expensive); when two threads
/// race to build the same key, the first insert wins and the loser's
/// artifact is discarded. Stats counters are aggregate observability
/// (hit/miss/build totals can vary with thread interleaving) and are
/// excluded from the byte-identity contract, like wall-clock fields.
/// They count table artifacts only.

#include <cstdint>
#include <map>
#include <string>

#include "core/mutex.h"
#include "core/table.h"
#include "core/thread_annotations.h"
#include "matchers/matcher.h"
#include "matchers/prepared.h"

namespace valentine {

/// FNV-1a content fingerprint of a table: name, column names, declared
/// types, row count, and every cell (nulls distinguished from empty
/// strings). Deterministic across runs and platforms; collisions are
/// astronomically unlikely at suite scale but would only ever serve a
/// same-family artifact, whose Score fallback keeps results sane.
uint64_t TableContentFingerprint(const Table& table);

/// TableContentFingerprint calls made in this process so far, on every
/// thread. A test seam for call-count contracts, such as a campaign
/// fingerprinting each suite table once per call.
uint64_t TableContentFingerprintCalls();

/// Pair artifacts ArtifactCache::GetOrPreparePair has built in this
/// process so far, on every thread (a family without a pair stage builds
/// none). A test seam for build-count contracts, such as a campaign
/// building one Cupid pair artifact per suite pair per call.
uint64_t PairArtifactBuilds();

/// \brief Mutex-guarded build-once cache of PreparedTable artifacts.
class ArtifactCache {
 public:
  ArtifactCache() = default;
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Per-family observability counters.
  struct FamilyStats {
    uint64_t hits = 0;    ///< lookups served from the cache
    uint64_t misses = 0;  ///< lookups that found no entry
    uint64_t builds = 0;  ///< Prepare executions (>= inserted entries)
  };

  /// Returns the cached artifact for (table, matcher family, prepare
  /// key), building it with `matcher.Prepare(table, profile, context)`
  /// on first use. `fingerprint` must be TableContentFingerprint(table);
  /// the caller computes it once per table and reuses it for every
  /// configuration. Returns nullptr when Prepare fails — the caller must
  /// then fall back to the monolithic Match path (never treat nullptr
  /// as "no matches").
  PreparedTablePtr GetOrPrepare(const ColumnMatcher& matcher,
                                const Table& table, uint64_t fingerprint,
                                const TableProfile* profile,
                                const MatchContext& context) EXCLUDES(mu_);

  /// Returns the cached pair artifact for (source, target, matcher
  /// family, prepare key), building it with `matcher.PreparePair(source,
  /// target, context)` on first use. The fingerprints must be
  /// TableContentFingerprint of each artifact's table. A null build (a
  /// family without a pair stage) is cached like an artifact, so each
  /// pair asks once. Returns nullptr for such a family and when the
  /// build fails (which is not cached); the
  /// caller then scores without a pair artifact, and Score builds the
  /// pair work inline. Traced as cache-build > prepare, like table
  /// artifacts; kept out of StatsSnapshot.
  PreparedPairPtr GetOrPreparePair(const ColumnMatcher& matcher,
                                   const PreparedTable& source,
                                   uint64_t source_fingerprint,
                                   const PreparedTable& target,
                                   uint64_t target_fingerprint,
                                   const MatchContext& context) EXCLUDES(mu_);

  /// Snapshot of per-family stats, keyed by family Name() (sorted, so
  /// iteration order is deterministic for reports).
  std::map<std::string, FamilyStats> StatsSnapshot() const EXCLUDES(mu_);

  /// Number of distinct table artifacts currently held.
  size_t size() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_{LockRank::kArtifactCache, "ArtifactCache"};
  /// Value-based keys: fingerprint(s) in hex, then each table name,
  /// the family and the prepare key, each behind its length, so no
  /// name can make two keys collide.
  std::map<std::string, PreparedTablePtr> map_ GUARDED_BY(mu_);
  /// Pair artifacts by value key; a null entry records a family without
  /// a pair stage.
  std::map<std::string, PreparedPairPtr> pairs_ GUARDED_BY(mu_);
  std::map<std::string, FamilyStats> stats_ GUARDED_BY(mu_);
};

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_ARTIFACT_CACHE_H_
